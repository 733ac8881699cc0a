//! End-to-end properties of the fault-injection subsystem: deterministic
//! schedules, deterministic degraded runs, the zero-fault bit-identity
//! guarantee, and panic-free decompression of hostile bytes.

use dmpim::chrome::lzo::{compress, decompress};
use dmpim::chrome::tiling::TextureTilingKernel;
use dmpim::core::rng::SplitMix64;
use dmpim::core::{
    DmpimError, EngineTiming, ExecutionMode, FaultConfig, FaultKind, FaultPlan, OffloadEngine,
    Platform, Port, RunReport, SimContext, Watchdog,
};

fn report_key(r: &RunReport) -> (u64, u64, u64) {
    (r.runtime_ps, r.energy.total_pj().to_bits(), r.instructions)
}

/// Same seed ⇒ identical windowed schedule, across plan rebuilds and seeds
/// spanning the whole u64 space.
#[test]
fn fault_plan_schedule_is_deterministic() {
    let mut rng = SplitMix64::new(0xFA41_7001);
    for _ in 0..24 {
        let rate = rng.next_f64();
        let seed = rng.next_u64();
        let cfg = FaultConfig::with_rate(rate);
        let a = FaultPlan::new(cfg, seed).unwrap();
        let b = FaultPlan::new(cfg, seed).unwrap();
        assert_eq!(a.schedule(), b.schedule(), "rate {rate} seed {seed:#x}");
    }
}

/// Same seed ⇒ identical `RunReport` from a faulted, resilient run: the
/// whole degradation path (retries, backoff, fallback) replays exactly.
#[test]
fn faulted_runs_are_deterministic() {
    let mut rng = SplitMix64::new(0xFA41_7002);
    for case in 0..4 {
        let seed = rng.next_u64();
        let rate = 0.3 + 0.6 * rng.next_f64();
        let run = || {
            let engine = OffloadEngine::new().with_faults(FaultConfig::with_rate(rate), seed);
            let mut k = TextureTilingKernel::new(64, 64, 1);
            engine.run(&mut k, ExecutionMode::PimAcc)
        };
        let a = run();
        let b = run();
        assert_eq!(report_key(&a), report_key(&b), "case {case} seed {seed:#x}");
        assert_eq!(a.executed, b.executed, "case {case} seed {seed:#x}");
        let (da, db) = (a.degradation, b.degradation);
        assert_eq!(
            da.as_ref().map(|d| (d.retries, d.fallbacks, d.backoff_ps, d.faults)),
            db.as_ref().map(|d| (d.retries, d.fallbacks, d.backoff_ps, d.faults)),
            "case {case} seed {seed:#x}"
        );
    }
}

/// A zero-fault plan is bit-identical to running with no plan at all.
#[test]
fn zero_fault_plan_is_bit_identical_to_no_faults() {
    let plain = {
        let mut k = TextureTilingKernel::new(64, 64, 1);
        OffloadEngine::new().run(&mut k, ExecutionMode::PimCore)
    };
    let mut rng = SplitMix64::new(0xFA41_7003);
    for _ in 0..4 {
        let seed = rng.next_u64();
        let engine = OffloadEngine::new().with_faults(FaultConfig::none(), seed);
        let mut k = TextureTilingKernel::new(64, 64, 1);
        let faulted = engine.run(&mut k, ExecutionMode::PimCore);
        assert_eq!(report_key(&plain), report_key(&faulted), "seed {seed:#x}");
        assert_eq!(faulted.executed, ExecutionMode::PimCore);
    }
}

/// A hostile fault environment degrades to CPU-only instead of failing:
/// the report always comes back, and CpuOnly is reached when PIM is dead.
#[test]
fn hostile_environment_degrades_to_cpu() {
    let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::with_rate(1.0) };
    let engine = OffloadEngine::new().with_faults(cfg, 9);
    let mut k = TextureTilingKernel::new(64, 64, 1);
    let r = engine.run(&mut k, ExecutionMode::PimAcc);
    assert_eq!(r.executed, ExecutionMode::CpuOnly);
    assert!(r.degraded());
    let d = r.degradation.unwrap();
    assert!(d.fallbacks > 0);
    assert!(d.error.is_none(), "CpuOnly should complete: {:?}", d.error);
}

/// Zero-byte DRAM draws consume no randomness and leave no trace in the
/// plan's statistics: interleaving them freely (as `SimContext::access`
/// does by skipping the call on cache hits) cannot shift later draws.
#[test]
fn zero_byte_dram_draws_consume_no_randomness() {
    let cfg = FaultConfig::with_rate(0.7);
    let mut with_zero_draws = FaultPlan::new(cfg, 0xD3A4).unwrap();
    let mut plain = FaultPlan::new(cfg, 0xD3A4).unwrap();
    let mut rng = SplitMix64::new(0xFA41_7005);
    for step in 0..256 {
        with_zero_draws.draw_dram_faults(0);
        let bytes = rng.next_below(1 << 22);
        let a = with_zero_draws.draw_dram_faults(bytes);
        let b = plain.draw_dram_faults(bytes);
        assert_eq!(
            (a.corrected, a.uncorrectable),
            (b.corrected, b.uncorrectable),
            "step {step}"
        );
        with_zero_draws.draw_dram_faults(0);
    }
    assert_eq!(with_zero_draws.stats(), plain.stats());
}

/// The watchdog turns runaway simulations into an error, deterministically.
#[test]
fn watchdog_reports_timeout_instead_of_hanging() {
    let engine = OffloadEngine::new().with_watchdog(Watchdog::new(1, 1));
    let mut k = TextureTilingKernel::new(64, 64, 1);
    let e = engine.try_run(&mut k, ExecutionMode::CpuOnly).unwrap_err();
    assert!(matches!(e, DmpimError::WatchdogTimeout { .. }), "{e}");
}

/// LZO decompression never panics, whatever the bytes: arbitrary garbage,
/// truncations and corruptions of valid streams all return `Ok`/`Err`.
#[test]
fn lzo_decompress_never_panics_on_arbitrary_bytes() {
    let mut rng = SplitMix64::new(0xFA41_7004);
    for _ in 0..256 {
        let len = rng.next_below(1024) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u8()).collect();
        let _ = decompress(&data);
    }
    let original: Vec<u8> = (0..4096).map(|_| rng.next_u8()).collect();
    let packed = compress(&original);
    for cut in (0..packed.len()).step_by(7) {
        let _ = decompress(&packed[..cut]);
    }
    for _ in 0..256 {
        let mut m = packed.clone();
        let at = rng.next_below(m.len() as u64) as usize;
        m[at] = m[at].wrapping_add(rng.next_range(1, 256) as u8);
        let _ = decompress(&m);
    }
}

/// The fault plan and the memory system agree on which vault an address
/// lives in. With exactly one failed vault `v`, an access at `v * 2048`
/// (vault `v` under the stacked model's 2 KB row interleave) trips, and
/// one at `v * 256`, which memsim serves from another vault, does not.
#[test]
fn failed_vault_trips_only_the_accesses_memsim_maps_to_it() {
    let cfg = FaultConfig { vault_fail_prob: 0.1, horizon_ps: 1, ..FaultConfig::none() };
    let (plan, v) = (0..)
        .find_map(|seed| {
            let plan = FaultPlan::new(cfg, seed).unwrap();
            match plan.schedule().as_slice() {
                [only] if only.vault != 0 => Some((plan, u64::from(only.vault))),
                _ => None,
            }
        })
        .unwrap();
    let read = |addr: u64| {
        let mut ctx = SimContext::new(Platform::pim(), EngineTiming::pim_core(), Port::PimCore)
            .with_fault_plan(plan.clone());
        ctx.read(addr, 64);
        ctx
    };
    let tripped = read(v * 2048);
    assert_eq!(tripped.memory().vault_of(v * 2048), Some(v as usize));
    assert!(
        matches!(
            tripped.error(),
            Some(DmpimError::FaultUnrecoverable { kind: FaultKind::VaultFailure, .. })
        ),
        "vault {v}: {:?}",
        tripped.error()
    );
    assert_eq!(tripped.fault_stats().vault_hits, 1);
    let spared = read(v * 256);
    assert_ne!(spared.memory().vault_of(v * 256), Some(v as usize));
    assert_eq!(spared.error(), None, "vault {v}");
    assert_eq!(spared.fault_stats().vault_hits, 0);
}
