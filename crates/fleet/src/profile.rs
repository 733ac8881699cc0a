//! Deterministic device-profile sampling and the closed-form per-device
//! energy model.
//!
//! A fleet sweep evaluates up to millions of devices, so each device
//! must cost microseconds, not the milliseconds of a full
//! `pim-memsim` run. The model here is the analytic skeleton of the
//! simulator's energy accounting: the same [`EnergyParams`] constants
//! (pJ/op, pJ/bit on-chip vs off-chip, row activation, coherence
//! messages) applied to a per-workload traffic profile, scaled by the
//! sampled device configuration. It preserves the paper's structure —
//! PIM wins exactly when it eliminates expensive off-chip data movement
//! — while staying cheap enough to sweep a 1M-device population.
//!
//! Sampling is keyed by `(sweep seed, absolute device index)` only:
//! device `i` gets the same profile no matter which shard, worker, or
//! resumed run evaluates it.

use std::sync::OnceLock;

use pim_energy::EnergyParams;
use pim_faults::SplitMix64;

/// Golden-ratio increment used to derive independent per-device streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Every DRAM class, in declaration (discriminant) order.
const DRAM_CLASSES: [DramClass; 3] = [DramClass::Lpddr3Low, DramClass::Lpddr3, DramClass::Lpddr4];
/// Every fault class, in declaration (discriminant) order.
const FAULT_CLASSES: [FaultClass; 4] =
    [FaultClass::None, FaultClass::Low, FaultClass::High, FaultClass::Severe];
/// The LLC sizes the sampler draws, in KiB: `256 << i` for index `i`.
const CACHE_KB: [u32; 4] = [256, 512, 1024, 2048];
/// The thermal envelopes the sampler draws, in centi-units:
/// `THERMAL_MIN_CENTI + i` for `i < THERMAL_LEVELS`.
const THERMAL_MIN_CENTI: u32 = 60;
const THERMAL_LEVELS: usize = 41;
/// A workload's weight in a mix is 0..=100 percent.
const WEIGHT_LEVELS: usize = 101;

/// DRAM class of a sampled device: sets the off-chip energy scale and
/// the CPU path's array energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramClass {
    /// Budget LPDDR3: slowest, most expensive per bit.
    Lpddr3Low,
    /// Mainstream LPDDR3 (the paper's baseline).
    Lpddr3,
    /// LPDDR4-class: cheaper off-chip bits, shrinking PIM's headroom.
    Lpddr4,
}

impl DramClass {
    /// Attribution-token label.
    pub fn label(self) -> &'static str {
        match self {
            DramClass::Lpddr3Low => "lpddr3-low",
            DramClass::Lpddr3 => "lpddr3",
            DramClass::Lpddr4 => "lpddr4",
        }
    }

    /// Multiplier on off-chip pJ/bit relative to the LPDDR3 baseline.
    fn offchip_scale(self) -> f64 {
        match self {
            DramClass::Lpddr3Low => 1.15,
            DramClass::Lpddr3 => 1.0,
            DramClass::Lpddr4 => 0.72,
        }
    }
}

/// Fault-rate class sampled from the `pim-faults` failure families: how
/// often the PIM path is unavailable and work falls back to the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Healthy stack.
    None,
    /// Rare correctable faults.
    Low,
    /// Frequent faults: meaningful fallback share.
    High,
    /// Degraded stack: PIM mostly unavailable.
    Severe,
}

impl FaultClass {
    /// Attribution-token label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Low => "low",
            FaultClass::High => "high",
            FaultClass::Severe => "severe",
        }
    }

    /// Fraction of offload-eligible work that actually runs on PIM.
    fn availability(self) -> f64 {
        match self {
            FaultClass::None => 1.0,
            FaultClass::Low => 0.98,
            FaultClass::High => 0.90,
            FaultClass::Severe => 0.55,
        }
    }
}

/// Workload mix of a device, in percent (sums to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Chrome-style browsing (texture tiling, color blitting, compression).
    pub chrome: u32,
    /// TensorFlow Mobile inference (packing, quantization, GEMM edges).
    pub tf: u32,
    /// VP9 video playback/capture (motion estimation, filters).
    pub video: u32,
}

impl WorkloadMix {
    /// The dominant workload's attribution-token label.
    pub fn dominant_label(&self) -> &'static str {
        if self.video >= self.chrome && self.video >= self.tf {
            "video"
        } else if self.chrome >= self.tf {
            "chrome"
        } else {
            "tf"
        }
    }
}

/// One sampled device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Absolute device index in the population.
    pub device: u64,
    /// DRAM class.
    pub dram: DramClass,
    /// Last-level cache size in KiB (256 / 512 / 1024 / 2048).
    pub cache_kb: u32,
    /// Thermal envelope in centi-units (60..=100): how much sustained
    /// accelerator offload the chassis tolerates before throttling.
    pub thermal_centi: u32,
    /// Fault-rate class.
    pub faults: FaultClass,
    /// Workload mix.
    pub mix: WorkloadMix,
}

impl DeviceProfile {
    /// Attribution tokens for this profile, used to key the count-min
    /// sketch when the device regresses under PIM.
    pub fn tokens(&self) -> [String; 5] {
        [
            format!("dram:{}", self.dram.label()),
            format!("cache:{}k", self.cache_kb),
            format!(
                "thermal:{}",
                if self.thermal_centi < 70 {
                    "tight"
                } else if self.thermal_centi < 85 {
                    "warm"
                } else {
                    "cool"
                }
            ),
            format!("faults:{}", self.faults.label()),
            format!("mix:{}", self.mix.dominant_label()),
        ]
    }
}

/// Every attribution token the sampler can emit. Count-min cannot
/// enumerate its keys, but the token vocabulary is finite and known, so
/// reports query each candidate and rank the estimates.
pub fn token_vocabulary() -> Vec<String> {
    let mut v = Vec::new();
    for d in DRAM_CLASSES {
        v.push(format!("dram:{}", d.label()));
    }
    for kb in CACHE_KB {
        v.push(format!("cache:{kb}k"));
    }
    for t in ["tight", "warm", "cool"] {
        v.push(format!("thermal:{t}"));
    }
    for f in FAULT_CLASSES {
        v.push(format!("faults:{}", f.label()));
    }
    for m in ["chrome", "tf", "video"] {
        v.push(format!("mix:{m}"));
    }
    v
}

/// Sample device `device`'s profile from the sweep seed. Pure function
/// of `(seed, device)`: shard boundaries, worker count, and resume
/// points cannot change it.
pub fn sample_profile(seed: u64, device: u64) -> DeviceProfile {
    let mut rng = SplitMix64::new(seed ^ device.wrapping_mul(GOLDEN));
    // Burn one draw so adjacent devices decorrelate even for tiny seeds.
    let _ = rng.next_u64();
    let dram = match rng.next_below(100) {
        0..=24 => DramClass::Lpddr3Low,
        25..=74 => DramClass::Lpddr3,
        _ => DramClass::Lpddr4,
    };
    let cache_kb = CACHE_KB[rng.next_below(CACHE_KB.len() as u64) as usize];
    let thermal_centi = THERMAL_MIN_CENTI + rng.next_below(THERMAL_LEVELS as u64) as u32;
    let faults = match rng.next_below(100) {
        0..=69 => FaultClass::None,
        70..=89 => FaultClass::Low,
        90..=97 => FaultClass::High,
        _ => FaultClass::Severe,
    };
    // Two cuts of [0, 100] give a mix summing to exactly 100.
    let a = rng.next_below(101);
    let b = rng.next_below(101);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mix = WorkloadMix {
        chrome: lo as u32,
        tf: (hi - lo) as u32,
        video: (100 - hi) as u32,
    };
    DeviceProfile { device, dram, cache_kb, thermal_centi, faults, mix }
}

/// Per-workload traffic template: relative op count, bytes moved per op
/// on the CPU path, SIMD fraction, and the fraction of ops the PIM
/// accelerator can take (the paper's offload candidates).
struct Traffic {
    ops: f64,
    bytes_per_op: f64,
    simd_frac: f64,
    offload_frac: f64,
    row_acts_per_kop: f64,
}

const CHROME: Traffic =
    Traffic { ops: 1.0, bytes_per_op: 10.0, simd_frac: 0.30, offload_frac: 0.75, row_acts_per_kop: 3.0 };
const TF: Traffic =
    Traffic { ops: 1.4, bytes_per_op: 6.0, simd_frac: 0.55, offload_frac: 0.60, row_acts_per_kop: 2.0 };
const VIDEO: Traffic =
    Traffic { ops: 1.8, bytes_per_op: 14.0, simd_frac: 0.45, offload_frac: 0.85, row_acts_per_kop: 4.0 };

/// The workloads in the order the closed form sums them.
const WORKLOADS: [&Traffic; 3] = [&CHROME, &TF, &VIDEO];

/// How much of the CPU path's traffic misses the cache, by LLC size.
fn miss_factor(cache_kb: u32) -> f64 {
    match cache_kb {
        256 => 1.0,
        512 => 0.86,
        1024 => 0.73,
        _ => 0.62,
    }
}

/// Energy a failed offload attempt wastes, relative to a successful
/// one: the attempt runs, faults, is scrubbed/retried, and the work
/// then falls back to the CPU (which is billed separately).
const RETRY_WASTE: f64 = 2.0;

/// Signed energy-reduction of the PIM configuration vs the CPU baseline
/// for one device, in basis points (−10000..=10000), then shifted by
/// +10000 into `0..=20000` so sketches hold only unsigned integers.
///
/// The asymmetry that makes regressions possible on real tail configs:
/// the CPU path only pays off-chip energy for cache *misses*, while the
/// PIM path streams the full traffic through the stack — so a large LLC
/// plus cheap LPDDR4 bits shrinks PIM's movement win — and offload
/// attempts that *fault* (per [`FaultClass`]) burn PIM energy
/// (`RETRY_WASTE`×) before falling back to the CPU.
///
/// Deterministic: a pure function of the profile and the (fixed)
/// [`EnergyParams`], evaluated in one stable expression order.
pub fn energy_reduction_shifted_bp(p: &DeviceProfile, params: &EnergyParams) -> u64 {
    let mut cpu_total = 0.0f64;
    let mut pim_total = 0.0f64;
    let offchip_pj_per_bit = params.offchip_pj_per_bit * p.dram.offchip_scale();
    let miss = miss_factor(p.cache_kb);
    // The thermal envelope caps how much offload the chassis sustains;
    // the fault class splits attempted offload into succeeded vs wasted.
    let thermal = f64::from(p.thermal_centi) / 100.0;
    let availability = p.faults.availability();

    for (weight, t) in [
        (f64::from(p.mix.chrome), &CHROME),
        (f64::from(p.mix.tf), &TF),
        (f64::from(p.mix.video), &VIDEO),
    ] {
        if weight == 0.0 {
            continue;
        }
        let ops = weight * t.ops;
        // CPU traffic is cache-filtered; PIM traffic is not.
        let bits_cpu = ops * t.bytes_per_op * 8.0 * miss;
        let bits_pim = ops * t.bytes_per_op * 8.0;
        let cpu_compute =
            ops * (params.cpu_op_pj * (1.0 - t.simd_frac) + params.cpu_simd_pj * t.simd_frac);
        let cpu_movement = bits_cpu * (offchip_pj_per_bit + params.lpddr3_array_pj_per_bit)
            + ops / 1000.0 * t.row_acts_per_kop * params.row_activate_pj;
        let cpu = cpu_compute + cpu_movement;

        // Per-unit-offload PIM cost: accelerator ops on full in-stack
        // traffic plus a coherence tax.
        let pim_unit = ops * params.accel_op_pj
            + bits_pim * params.stacked_internal_pj_per_bit
            + ops / 100.0 * params.coherence_msg_pj;
        let attempted = t.offload_frac * thermal;
        let succeeded = attempted * availability;
        let wasted = attempted - succeeded;
        let pim = succeeded * pim_unit + wasted * RETRY_WASTE * pim_unit
            + (1.0 - succeeded) * cpu;
        cpu_total += cpu;
        pim_total += pim;
    }

    let reduction_bp = if cpu_total <= 0.0 {
        0i64
    } else {
        (((cpu_total - pim_total) / cpu_total) * 10_000.0).round() as i64
    };
    (reduction_bp.clamp(-10_000, 10_000) + 10_000) as u64
}

/// The closed form's per-device terms for one [`EnergyParams`], so that a
/// sweep evaluates each device by lookups instead of re-deriving them.
///
/// Each term depends on at most four small discrete profile fields:
/// `cpu` on (workload, weight, DRAM class, cache size), `pim_unit` on
/// (workload, weight) and `attempted` on (workload, thermal envelope).
/// Every stored value is a whole sub-expression of
/// [`energy_reduction_shifted_bp`], computed by the same expression in the
/// same order, and [`EnergyTerms::reduction_shifted_bp`] combines them in
/// that function's order, so the two return the same value: a test checks
/// every one of the 10,137,168 profiles the sampler can draw. A weight-0
/// workload, which the closed form skips, adds exact zeros here.
pub(crate) struct EnergyTerms {
    params: EnergyParams,
    /// Per workload and weight, at `workload * WEIGHT_LEVELS + weight`.
    /// On the heap (31.5 KB), so that building it copies no large value
    /// through the stack.
    by_weight: Vec<WeightTerms>,
    /// `attempted` per workload and thermal level.
    attempted: [[f64; THERMAL_LEVELS]; WORKLOADS.len()],
    /// `availability` per `FaultClass as usize`.
    availability: [f64; FAULT_CLASSES.len()],
}

/// One workload's terms at one weight.
struct WeightTerms {
    /// `cpu` per `DramClass as usize * 4 + cache index`.
    cpu: [f64; DRAM_CLASSES.len() * CACHE_KB.len()],
    pim_unit: f64,
}

impl EnergyTerms {
    fn new(params: &EnergyParams) -> Self {
        let mut by_weight = Vec::with_capacity(WORKLOADS.len() * WEIGHT_LEVELS);
        let mut attempted = [[0.0; THERMAL_LEVELS]; WORKLOADS.len()];
        for (k, t) in WORKLOADS.into_iter().enumerate() {
            for weight in 0..WEIGHT_LEVELS as u32 {
                let ops = f64::from(weight) * t.ops;
                let bits_pim = ops * t.bytes_per_op * 8.0;
                let cpu_compute = ops
                    * (params.cpu_op_pj * (1.0 - t.simd_frac) + params.cpu_simd_pj * t.simd_frac);
                let mut cpu = [0.0; DRAM_CLASSES.len() * CACHE_KB.len()];
                for (d, dram) in DRAM_CLASSES.into_iter().enumerate() {
                    let offchip_pj_per_bit = params.offchip_pj_per_bit * dram.offchip_scale();
                    for (c, cache_kb) in CACHE_KB.into_iter().enumerate() {
                        let bits_cpu = ops * t.bytes_per_op * 8.0 * miss_factor(cache_kb);
                        let cpu_movement = bits_cpu
                            * (offchip_pj_per_bit + params.lpddr3_array_pj_per_bit)
                            + ops / 1000.0 * t.row_acts_per_kop * params.row_activate_pj;
                        cpu[d * CACHE_KB.len() + c] = cpu_compute + cpu_movement;
                    }
                }
                let pim_unit = ops * params.accel_op_pj
                    + bits_pim * params.stacked_internal_pj_per_bit
                    + ops / 100.0 * params.coherence_msg_pj;
                by_weight.push(WeightTerms { cpu, pim_unit });
            }
            for (i, attempted) in attempted[k].iter_mut().enumerate() {
                let thermal = f64::from(THERMAL_MIN_CENTI + i as u32) / 100.0;
                *attempted = t.offload_frac * thermal;
            }
        }
        Self {
            params: *params,
            by_weight,
            attempted,
            availability: FAULT_CLASSES.map(FaultClass::availability),
        }
    }

    /// The terms of [`EnergyParams::default`], the params every sweep
    /// prices devices with, built on the first call.
    pub(crate) fn for_default_params() -> &'static Self {
        static TERMS: OnceLock<EnergyTerms> = OnceLock::new();
        TERMS.get_or_init(|| Self::new(&EnergyParams::default()))
    }

    /// [`energy_reduction_shifted_bp`] of `p`, by lookups when the sampler
    /// could have drawn `p` and by the closed form otherwise (the
    /// profile's fields are public).
    pub(crate) fn reduction_shifted_bp(&self, p: &DeviceProfile) -> u64 {
        self.lookup(p).unwrap_or_else(|| energy_reduction_shifted_bp(p, &self.params))
    }

    /// The lookup evaluation, or `None` outside the sampled domain: a mix
    /// that does not sum to 100, an unlisted cache size or a thermal
    /// envelope outside 60..=100. The indices are computed, not matched,
    /// so a random profile costs no mispredicted branch.
    fn lookup(&self, p: &DeviceProfile) -> Option<u64> {
        let weights = [p.mix.chrome, p.mix.tf, p.mix.video];
        // 256 << i has i + 8 trailing zeros.
        let cache = p.cache_kb.trailing_zeros().wrapping_sub(8) as usize;
        let thermal = p.thermal_centi.wrapping_sub(THERMAL_MIN_CENTI) as usize;
        if weights.iter().map(|&w| u64::from(w)).sum::<u64>() != 100
            || CACHE_KB.get(cache) != Some(&p.cache_kb)
            || thermal >= THERMAL_LEVELS
        {
            return None;
        }
        let config = p.dram as usize * CACHE_KB.len() + cache;
        let availability = self.availability[p.faults as usize];

        let mut cpu_total = 0.0f64;
        let mut pim_total = 0.0f64;
        for (k, weight) in weights.into_iter().enumerate() {
            let terms = &self.by_weight[k * WEIGHT_LEVELS + weight as usize];
            let cpu = terms.cpu[config];
            let pim_unit = terms.pim_unit;
            let attempted = self.attempted[k][thermal];
            let succeeded = attempted * availability;
            let wasted = attempted - succeeded;
            let pim =
                succeeded * pim_unit + wasted * RETRY_WASTE * pim_unit + (1.0 - succeeded) * cpu;
            cpu_total += cpu;
            pim_total += pim;
        }

        // A mix summing to 100 gives some workload a positive weight, so
        // `cpu_total > 0` and the closed form's zero-energy case cannot arise.
        let reduction_bp = (((cpu_total - pim_total) / cpu_total) * 10_000.0).round() as i64;
        Some((reduction_bp.clamp(-10_000, 10_000) + 10_000) as u64)
    }
}

/// Convenience: shifted basis points back to signed basis points.
pub fn shifted_to_signed_bp(shifted: u64) -> i64 {
    shifted as i64 - 10_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_device() {
        for device in [0u64, 1, 999_999, u64::MAX] {
            assert_eq!(sample_profile(7, device), sample_profile(7, device));
        }
        // Different seeds decorrelate the population.
        let same = (0..64u64)
            .filter(|&d| sample_profile(1, d) == sample_profile(2, d))
            .count();
        assert!(same < 16, "{same} of 64 profiles identical across seeds");
    }

    #[test]
    fn mix_always_sums_to_100() {
        for d in 0..500u64 {
            let p = sample_profile(11, d);
            assert_eq!(p.mix.chrome + p.mix.tf + p.mix.video, 100, "{p:?}");
            assert!((60..=100).contains(&p.thermal_centi));
        }
    }

    #[test]
    fn healthy_baseline_device_sees_large_reduction() {
        let p = DeviceProfile {
            device: 0,
            dram: DramClass::Lpddr3,
            cache_kb: 256,
            thermal_centi: 100,
            faults: FaultClass::None,
            mix: WorkloadMix { chrome: 40, tf: 20, video: 40 },
        };
        let bp = shifted_to_signed_bp(energy_reduction_shifted_bp(&p, &EnergyParams::default()));
        assert!(bp > 4_000, "paper-like device should see >40% reduction, got {bp} bp");
    }

    #[test]
    fn hostile_tail_config_regresses() {
        // Big cache + cheap DRAM already absorb most movement cost, and a
        // faulty, thermally-limited stack wastes retried offload energy:
        // PIM must show up as an outright regression.
        let p = DeviceProfile {
            device: 0,
            dram: DramClass::Lpddr4,
            cache_kb: 2048,
            thermal_centi: 60,
            faults: FaultClass::Severe,
            mix: WorkloadMix { chrome: 20, tf: 70, video: 10 },
        };
        let bp = shifted_to_signed_bp(energy_reduction_shifted_bp(&p, &EnergyParams::default()));
        let healthy = DeviceProfile {
            dram: DramClass::Lpddr3,
            cache_kb: 256,
            thermal_centi: 100,
            faults: FaultClass::None,
            ..p
        };
        let healthy_bp =
            shifted_to_signed_bp(energy_reduction_shifted_bp(&healthy, &EnergyParams::default()));
        assert!(bp < 0, "tail config must regress outright, got {bp} bp");
        assert!(bp < healthy_bp / 2, "tail config {bp} bp vs healthy {healthy_bp} bp");
    }

    #[test]
    fn precomputed_terms_match_the_closed_form_on_every_reachable_profile() {
        let params = EnergyParams::default();
        let terms = EnergyTerms::for_default_params();
        let mut checked = 0u64;
        for dram in DRAM_CLASSES {
            for cache_kb in CACHE_KB {
                for thermal_centi in (0..THERMAL_LEVELS as u32).map(|i| THERMAL_MIN_CENTI + i) {
                    for faults in FAULT_CLASSES {
                        for chrome in 0..=100u32 {
                            for tf in 0..=100 - chrome {
                                let p = DeviceProfile {
                                    device: 0,
                                    dram,
                                    cache_kb,
                                    thermal_centi,
                                    faults,
                                    mix: WorkloadMix { chrome, tf, video: 100 - chrome - tf },
                                };
                                let want = energy_reduction_shifted_bp(&p, &params);
                                assert_eq!(terms.lookup(&p), Some(want), "{p:?}");
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        // 3 DRAM × 4 cache × 41 thermal × 4 fault × 5,151 mixes.
        assert_eq!(checked, 10_137_168);
    }

    #[test]
    fn profiles_outside_the_sampled_domain_take_the_closed_form() {
        let params = EnergyParams::default();
        let terms = EnergyTerms::for_default_params();
        let base = DeviceProfile {
            device: 0,
            dram: DramClass::Lpddr4,
            cache_kb: 512,
            thermal_centi: 80,
            faults: FaultClass::High,
            mix: WorkloadMix { chrome: 30, tf: 30, video: 40 },
        };
        assert!(terms.lookup(&base).is_some());
        let mix =
            |chrome, tf, video| DeviceProfile { mix: WorkloadMix { chrome, tf, video }, ..base };
        let outside = [
            mix(101, 0, 0),
            mix(150, 20, 30),
            mix(u32::MAX, 1, 0),
            mix(30, 30, 30),
            DeviceProfile { cache_kb: 0, ..base },
            DeviceProfile { cache_kb: 128, ..base },
            DeviceProfile { cache_kb: 768, ..base },
            DeviceProfile { cache_kb: 4096, ..base },
            DeviceProfile { cache_kb: u32::MAX, ..base },
            DeviceProfile { thermal_centi: 59, ..base },
            DeviceProfile { thermal_centi: 101, ..base },
            DeviceProfile { thermal_centi: 0, ..base },
        ];
        for p in outside {
            assert_eq!(terms.lookup(&p), None, "{p:?}");
            assert_eq!(terms.reduction_shifted_bp(&p), energy_reduction_shifted_bp(&p, &params));
        }
    }

    #[test]
    fn tokens_stay_inside_the_vocabulary() {
        let vocab = token_vocabulary();
        for d in 0..200u64 {
            for t in sample_profile(3, d).tokens() {
                assert!(vocab.contains(&t), "{t} missing from vocabulary");
            }
        }
    }
}
