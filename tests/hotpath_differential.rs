//! Differential tests for the ranged access engine.
//!
//! memsim has two access paths: the reference per-line walk and the
//! ranged streak engine behind `SimContext::access_range`. A ranged
//! descriptor is defined as the per-row scalar loop of `SimContext::access`
//! calls; these tests drive strided and streaming adversaries on the
//! three study platforms — plain, traced, under four seeded fault plans
//! (with and without a tracer), on a partial row that trips, and with an
//! armed watchdog under thermal throttle or a closed fault window — and
//! assert that every observable (simulated time, activity counters,
//! energy, the per-tag ledger, cost attribution, cache and coherence
//! statistics, fault statistics and errors, tracer metrics and the
//! exported trace) is bit-identical between the descriptor and that loop.

use dmpim::core::rng::SplitMix64;
use dmpim::core::{
    AccessKind, DmpimError, EccConfig, EngineTiming, FaultConfig, FaultKind, FaultPlan,
    Platform, Port, SimContext, Tracer, Watchdog,
};

/// Everything observable about a finished simulation, formatted so a
/// string comparison is a bit-level comparison (floats via `to_bits`, or
/// via `Debug`, which prints the shortest form that round-trips).
fn fingerprint(ctx: &SimContext) -> String {
    let mem = ctx.memory();
    format!(
        "now={} act={:?} energy={:x} cpu_l1={:?} llc={:?} pim_l1={:?} dram={:?} coh={:?} \
         faults={:?} error={:?} host_events={} cost={:x?} tags={:?}",
        ctx.now_ps(),
        ctx.total_activity(),
        ctx.total_energy().total_pj().to_bits(),
        mem.cpu_l1_stats(),
        mem.llc_stats(),
        mem.pim_l1_stats(),
        mem.dram_stats(),
        ctx.coherence_stats(),
        ctx.fault_stats(),
        ctx.error(),
        ctx.host_events(),
        ctx.cost_breakdown().as_array().map(f64::to_bits),
        ctx.tag_stats(),
    )
}

fn platforms() -> Vec<(&'static str, Platform, EngineTiming, Port)> {
    vec![
        ("cpu", Platform::baseline(), EngineTiming::soc_cpu(), Port::Cpu),
        ("pim-core", Platform::pim(), EngineTiming::pim_core(), Port::PimCore),
        ("pim-acc", Platform::pim(), EngineTiming::pim_accel(), Port::PimAccel),
    ]
}

/// Issue one descriptor — or, when `ranged` is false, the per-row scalar
/// loop `access_range` is defined as, so comparing fingerprints is a
/// semantic differential of the ranged engine, not just of its gating.
fn emit(
    ctx: &mut SimContext,
    ranged: bool,
    addr: u64,
    row_bytes: u64,
    stride: u64,
    rows: u64,
    kind: AccessKind,
) {
    if ranged {
        ctx.access_range(addr, row_bytes, stride, rows, kind);
    } else {
        for i in 0..rows {
            ctx.access(addr + i * stride, row_bytes, kind);
        }
    }
}

/// Hot rectangle `i`: 24 rows of a small plane at `base` with an odd
/// pitch (no set aliasing) that every first-level cache holds, re-read
/// (every fourth one re-written) at shifting offsets and widths — the
/// all-hit row streaks the ranged engine commits in batch.
fn hot(ctx: &mut SimContext, ranged: bool, base: u64, i: u64) {
    let kind = if i % 4 == 3 { AccessKind::Write } else { AccessKind::Read };
    emit(ctx, ranged, base + (i * 37) % 256, 40 + i % 90, 320, 24, kind);
}

/// The access pattern a scenario drives.
#[derive(Clone, Copy, Debug, Default)]
enum Pattern {
    /// Column-major plane walks (row stride = plane pitch, tiny row
    /// payloads), large-stride motion-search rectangle reads like the VP9
    /// kernels issue, and long contiguous streaming rows — interleaved
    /// with scalar pokes so ranged and per-line bookkeeping mix, and with
    /// hot rectangles so all-hit streaks occur all through the run.
    #[default]
    Adversary,
    /// Hot rectangles only: nearly every row commits in a streak, so
    /// fault-window edges and watchdog limits fall inside streaks.
    Hot,
    /// One cold 64-byte line read 100 times (row stride 0): row 0 settles
    /// on the walk, rows 1..99 would hit it.
    Repeat,
}

fn drive(ctx: &mut SimContext, pattern: Pattern, ranged: bool, seed: u64) {
    const PITCH: u64 = 4096;
    let buf = ctx.alloc(16 << 20);
    let hot_base = buf.addr(15 << 20);
    match pattern {
        Pattern::Hot => {
            for i in 0..2048 {
                hot(ctx, ranged, hot_base, i);
            }
            return;
        }
        Pattern::Repeat => {
            emit(ctx, ranged, buf.addr(0), 64, 0, 100, AccessKind::Read);
            return;
        }
        Pattern::Adversary => {}
    }
    let mut rng = SplitMix64::new(seed);
    // Column-major walks: one descriptor per column, stride = pitch.
    for col in 0..48u64 {
        let x = (col * 61) % (PITCH - 8);
        let kind = if col % 5 == 0 { AccessKind::Write } else { AccessKind::Read };
        emit(ctx, ranged, buf.addr(x), 1 + col % 8, PITCH, 768, kind);
        for i in 0..8 {
            hot(ctx, ranged, hot_base, col * 8 + i);
        }
        if col % 7 == 0 {
            ctx.access(buf.addr(rng.next_below(1 << 20)), 1 + rng.next_below(64), AccessKind::Read);
        }
    }
    // Motion-search rectangles: bs+7 rows of bs+7 bytes per candidate,
    // candidates jumping ±range around each macroblock like `motion_search`.
    // Scoped, so the per-tag ledger and a phase span see them apart.
    let bs: u64 = 16;
    ctx.scoped("motion-search", |ctx| {
        for by in (0..256).step_by(bs as usize) {
            for bx in (0..256).step_by(bs as usize) {
                for cand in 0..6u64 {
                    let dx = (cand * 11) % 33;
                    let dy = (cand * 7) % 33;
                    let addr = buf.addr((by + dy) * PITCH + bx + dx);
                    emit(ctx, ranged, addr, bs + 7, PITCH, bs + 7, AccessKind::Read);
                }
                emit(ctx, ranged, buf.addr(by * PITCH + bx), bs, PITCH, bs, AccessKind::Write);
                hot(ctx, ranged, hot_base, by + bx);
            }
        }
    });
    // Streaming: contiguous multi-line rows, stride == row_bytes.
    for pass in 0..3u64 {
        let kind = if pass == 1 { AccessKind::Write } else { AccessKind::Read };
        emit(ctx, ranged, buf.addr((8 << 20) + pass * 128), PITCH, PITCH, 1536, kind);
        for i in 0..8 {
            hot(ctx, ranged, hot_base, pass * 8 + i);
        }
    }
}

/// What a scenario drives and attaches to each context.
#[derive(Clone, Copy, Default)]
struct Setup {
    pattern: Pattern,
    traced: bool,
    faults: Option<(FaultConfig, u64)>,
    watchdog: Option<Watchdog>,
}

/// Run `setup` once as descriptors and once as the forced-scalar loop,
/// assert the two agree on every observable (fingerprint, metrics JSON,
/// Chrome trace bytes), and return the ranged context for
/// scenario-specific checks.
fn assert_ranged_matches_scalar(name: &str, port: usize, setup: Setup) -> SimContext {
    let (platform_name, platform, timing, port) = platforms()[port];
    let run = |ranged: bool| {
        let tracer = if setup.traced { Tracer::new() } else { Tracer::disabled() };
        let mut ctx = SimContext::new(platform, timing, port).with_tracer(&tracer);
        if let Some((cfg, seed)) = setup.faults {
            ctx = ctx.with_fault_plan(FaultPlan::new(cfg, seed).unwrap());
        }
        if let Some(w) = setup.watchdog {
            ctx = ctx.with_watchdog(w);
        }
        drive(&mut ctx, setup.pattern, ranged, 0x0704 ^ port as u64);
        (ctx, tracer)
    };
    let (ranged, ta) = run(true);
    let (scalar, tb) = run(false);
    let traced = if setup.traced { " traced" } else { "" };
    let what = format!("{name} {:?}{traced} on {platform_name}", setup.pattern);
    assert_eq!(fingerprint(&ranged), fingerprint(&scalar), "{what}");
    assert_eq!(ta.metrics().to_json(), tb.metrics().to_json(), "{what}: metrics");
    assert!(ta.chrome_trace() == tb.chrome_trace(), "{what}: chrome trace bytes differ");
    ranged
}

const CPU: usize = 0;
const PIM_PORTS: [usize; 2] = [1, 2];

/// Simulated length of `pattern` on `port` without faults: the horizon
/// the scenario plans draw their windows over, so every window opens and
/// closes mid-run.
fn span(port: usize, pattern: Pattern) -> u64 {
    let (_, platform, timing, p) = platforms()[port];
    let mut ctx = SimContext::new(platform, timing, p);
    drive(&mut ctx, pattern, true, 0x0704 ^ port as u64);
    ctx.now_ps()
}

/// `FaultConfig::with_rate(0.4)` — bit flips, unavailability windows,
/// throttle, rare vault failures — with its windows scaled to a
/// `horizon_ps` horizon.
fn rate_plan(horizon_ps: u64) -> FaultConfig {
    let rate = FaultConfig::with_rate(0.4);
    let scale = |len: u64| len * horizon_ps / rate.horizon_ps;
    FaultConfig {
        unavail_window_ps: scale(rate.unavail_window_ps),
        throttle_window_ps: scale(rate.throttle_window_ps),
        horizon_ps,
        ..rate
    }
}

/// Thermal throttle alone: three windows of a tenth of the horizon, 1.8x.
fn throttle_plan(horizon_ps: u64) -> FaultConfig {
    FaultConfig {
        throttle_windows: 3,
        throttle_window_ps: horizon_ps / 10,
        throttle_factor: 1.8,
        horizon_ps,
        ..FaultConfig::none()
    }
}

/// A partial vault failure: each vault fails with probability 1/4.
fn vault_plan(horizon_ps: u64) -> FaultConfig {
    FaultConfig { vault_fail_prob: 0.25, horizon_ps, ..FaultConfig::none() }
}

/// DRAM bit flips that ECC can never correct, at `flips_per_gb`: the
/// first access whose traffic completes a flip trips the context.
fn bit_flip_plan(flips_per_gb: f64) -> FaultConfig {
    let ecc = EccConfig { uncorrectable_fraction: 1.0, ..EccConfig::default() };
    FaultConfig { bit_flips_per_gb: flips_per_gb, ecc, ..FaultConfig::none() }
}

/// Flip rate of the plan-table bit-flip plan: about one flip per 84
/// lines of DRAM traffic, so both patterns trip within their first few
/// hundred rows on a row that misses — the hot pattern inside a hot
/// rectangle whose later rows (on the CPU and PIM-core ports) hit.
const BIT_FLIPS_PER_GB: f64 = 200_000.0;

/// The bit-flip plan's trip, on any port.
fn tripped_on_bit_flip(ctx: &SimContext) -> bool {
    matches!(ctx.error(), Some(DmpimError::FaultTransient { kind: FaultKind::BitFlip, .. }))
}

/// Ranged descriptors against the forced-scalar per-row loop on all
/// three platforms: column-major, motion-search, streaming and hot
/// patterns (tens of thousands of rows — over a million line touches in
/// aggregate) must leave bit-identical machine state.
#[test]
fn ranged_adversaries_match_forced_scalar_walk() {
    for port in 0..3 {
        for pattern in [Pattern::Adversary, Pattern::Hot] {
            assert_ranged_matches_scalar("plain", port, Setup { pattern, ..Setup::default() });
        }
    }
}

/// Same differential with tracing attached: all-hit streaks book their
/// per-access metrics in batch and emit no events, so fingerprints,
/// metrics and trace bytes must all match.
#[test]
fn ranged_adversaries_match_forced_scalar_with_tracing() {
    for port in 0..3 {
        for pattern in [Pattern::Adversary, Pattern::Hot] {
            let setup = Setup { pattern, traced: true, ..Setup::default() };
            assert_ranged_matches_scalar("traced", port, setup);
        }
    }
}

/// Same differential under four seeded fault plans, untraced and traced:
/// the with-rate preset, thermal throttle alone, a partial vault failure,
/// and uncorrectable bit flips. Streaks must hold the plan's windowed
/// state constant and settle missing rows in the reference draw order.
/// On the mixed adversary each plan's event must actually happen on the
/// PIM ports; the hot pattern puts the window edges inside streaks. The
/// bit-flip plan must trip on every port and pattern, and a trip on a
/// partial row must end its descriptor.
#[test]
fn ranged_adversaries_match_forced_scalar_under_faults() {
    type Plan = fn(u64) -> FaultConfig;
    let plans: [(&str, Plan); 4] = [
        ("rate 0.4", rate_plan),
        ("throttle", throttle_plan),
        ("vault failure", vault_plan),
        ("bit flip", |_| bit_flip_plan(BIT_FLIPS_PER_GB)),
    ];
    for port in 0..3 {
        let seed = 0xFA58 ^ port as u64;
        for pattern in [Pattern::Adversary, Pattern::Hot] {
            let horizon = span(port, pattern);
            for (name, plan) in plans {
                for traced in [false, true] {
                    let faults = Some((plan(horizon), seed));
                    let setup = Setup { pattern, traced, faults, ..Setup::default() };
                    let ctx = assert_ranged_matches_scalar(name, port, setup);
                    let what = format!("{name} {pattern:?} on port {port}: {:?}", ctx.error());
                    let stats = ctx.fault_stats();
                    match name {
                        "bit flip" => assert!(tripped_on_bit_flip(&ctx), "{what}"),
                        _ if port == CPU || !matches!(pattern, Pattern::Adversary) => {}
                        "rate 0.4" => assert!(
                            matches!(
                                ctx.error(),
                                Some(DmpimError::FaultTransient {
                                    kind: FaultKind::PimUnavailable,
                                    ..
                                })
                            ),
                            "{what}"
                        ),
                        "throttle" => {
                            assert_eq!(ctx.error(), None, "{what}");
                            assert!(stats.throttled_ps > 0, "{what}");
                        }
                        _ => assert!(stats.vault_hits > 0, "{what}"),
                    }
                }
            }
        }
    }
}

/// A partial row that trips ends the descriptor: the cold row 0 of a
/// stride-0 descriptor draws an uncorrectable flip, and the 99 rows that
/// would hit its line stay no-ops, as in the scalar loop.
#[test]
fn ranged_partial_row_trip_ends_the_descriptor() {
    for port in 0..3 {
        for traced in [false, true] {
            let faults = Some((bit_flip_plan(1e9), 0xB17));
            let setup = Setup { pattern: Pattern::Repeat, traced, faults, ..Setup::default() };
            let ctx = assert_ranged_matches_scalar("partial-row trip", port, setup);
            assert!(tripped_on_bit_flip(&ctx), "port {port}: {:?}", ctx.error());
            assert_eq!(ctx.host_events(), 1, "port {port}: rows after the trip ran");
        }
    }
}

/// An armed watchdog under thermal throttle: the streak allowance must
/// step by the throttled stall, so a simulated-time limit in the middle
/// of a throttle window trips on the same row (and at the same clock) as
/// the scalar loop.
#[test]
fn ranged_watchdog_trips_on_the_scalar_row_under_throttle() {
    for port in PIM_PORTS {
        let seed = 0xFA58 ^ port as u64;
        let plan = throttle_plan(span(port, Pattern::Hot));
        let window = FaultPlan::new(plan, seed).unwrap().schedule()[0];
        let limit = window.at_ps + (window.end_ps - window.at_ps) / 2;
        let setup = Setup {
            pattern: Pattern::Hot,
            traced: true,
            faults: Some((plan, seed)),
            watchdog: Some(Watchdog { max_sim_ps: Some(limit), max_host_events: None }),
        };
        let ctx = assert_ranged_matches_scalar("throttled watchdog", port, setup);
        assert!(
            matches!(ctx.error(), Some(DmpimError::WatchdogTimeout { what: "simulated time", .. })),
            "port {port}: {:?}",
            ctx.error()
        );
        assert!(ctx.fault_stats().throttled_ps > 0, "port {port}: no throttle before the trip");
    }
}

/// A closed fault window with a watchdog armed: the engine must hand the
/// descriptor to the scalar loop before asking the watchdog for its
/// allowance, so the unavailability trips on the same row as in the
/// scalar loop. The hot pattern keeps every row on the ranged engine.
#[test]
fn ranged_closed_fault_window_hands_off_under_an_armed_watchdog() {
    for port in PIM_PORTS {
        let plan = rate_plan(span(port, Pattern::Hot));
        let setup = Setup {
            pattern: Pattern::Hot,
            faults: Some((plan, 0xFA58 ^ port as u64)),
            watchdog: Some(Watchdog { max_sim_ps: None, max_host_events: Some(u64::MAX) }),
            ..Setup::default()
        };
        let ctx = assert_ranged_matches_scalar("armed watchdog, unavailable PIM", port, setup);
        assert!(
            matches!(
                ctx.error(),
                Some(DmpimError::FaultTransient { kind: FaultKind::PimUnavailable, .. })
            ),
            "port {port}: {:?}",
            ctx.error()
        );
    }
}
