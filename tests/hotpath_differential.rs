//! Differential tests for the ranged access engine.
//!
//! memsim has two access paths: the reference per-line walk and the
//! ranged streak engine behind `SimContext::access_range`. A ranged
//! descriptor is defined as the per-row scalar loop of `SimContext::access`
//! calls; these tests drive strided and streaming adversaries on the
//! three study platforms — with and without a seeded fault plan, with and
//! without tracing — and assert that every observable (simulated time,
//! activity counters, energy, cache and coherence statistics, tracer
//! metrics) is bit-identical between the descriptor and that loop.

use dmpim::core::rng::SplitMix64;
use dmpim::core::{
    AccessKind, EngineTiming, FaultConfig, FaultPlan, Platform, Port, SimContext, Tracer,
};

/// Everything observable about a finished simulation, formatted so a
/// string comparison is a bit-level comparison (floats via `to_bits`).
fn fingerprint(ctx: &SimContext) -> String {
    let mem = ctx.memory();
    format!(
        "now={} act={:?} energy={:x} cpu_l1={:?} llc={:?} pim_l1={:?} dram={:?} coh={:?}",
        ctx.now_ps(),
        ctx.total_activity(),
        ctx.total_energy().total_pj().to_bits(),
        mem.cpu_l1_stats(),
        mem.llc_stats(),
        mem.pim_l1_stats(),
        mem.dram_stats(),
        ctx.coherence_stats(),
    )
}

fn platforms() -> Vec<(&'static str, Platform, EngineTiming, Port)> {
    vec![
        ("cpu", Platform::baseline(), EngineTiming::soc_cpu(), Port::Cpu),
        ("pim-core", Platform::pim(), EngineTiming::pim_core(), Port::PimCore),
        ("pim-acc", Platform::pim(), EngineTiming::pim_accel(), Port::PimAccel),
    ]
}

/// Emit the ranged-access adversary stream: column-major plane walks
/// (row stride = plane pitch, tiny row payloads), large-stride
/// motion-search rectangle reads like the VP9 kernels issue, and long
/// contiguous streaming rows — interleaved with scalar pokes so ranged
/// and per-line bookkeeping mix. When `ranged` is false every call is
/// decomposed into the per-row scalar loop `access_range` is defined
/// against, so comparing fingerprints is a semantic differential of the
/// ranged engine, not just of its internal gating.
fn drive_adversary(ctx: &mut SimContext, ranged: bool, seed: u64) {
    const PITCH: u64 = 4096;
    let buf = ctx.alloc(16 << 20);
    let mut rng = SplitMix64::new(seed);
    let emit = |ctx: &mut SimContext, addr: u64, row_bytes: u64, stride: u64, rows: u64, kind| {
        if ranged {
            ctx.access_range(addr, row_bytes, stride, rows, kind);
        } else {
            for i in 0..rows {
                ctx.access(addr + i * stride, row_bytes, kind);
            }
        }
    };
    // Column-major walks: one descriptor per column, stride = pitch.
    for col in 0..48u64 {
        let x = (col * 61) % (PITCH - 8);
        let kind = if col % 5 == 0 { AccessKind::Write } else { AccessKind::Read };
        emit(ctx, buf.addr(x), 1 + col % 8, PITCH, 768, kind);
        if col % 7 == 0 {
            ctx.access(buf.addr(rng.next_below(1 << 20)), 1 + rng.next_below(64), AccessKind::Read);
        }
    }
    // Motion-search rectangles: bs+7 rows of bs+7 bytes per candidate,
    // candidates jumping ±range around each macroblock like `motion_search`.
    let bs: u64 = 16;
    for by in (0..256).step_by(bs as usize) {
        for bx in (0..256).step_by(bs as usize) {
            for cand in 0..6u64 {
                let dx = (cand * 11) % 33;
                let dy = (cand * 7) % 33;
                let addr = buf.addr((by + dy) * PITCH + bx + dx);
                emit(ctx, addr, bs + 7, PITCH, bs + 7, AccessKind::Read);
            }
            emit(ctx, buf.addr(by * PITCH + bx), bs, PITCH, bs, AccessKind::Write);
        }
    }
    // Streaming: contiguous multi-line rows, stride == row_bytes.
    for pass in 0..3u64 {
        let kind = if pass == 1 { AccessKind::Write } else { AccessKind::Read };
        emit(ctx, buf.addr((8 << 20) + pass * 128), PITCH, PITCH, 1536, kind);
    }
}

fn run_adversary(
    platform: Platform,
    timing: EngineTiming,
    port: Port,
    ranged: bool,
    faults: Option<u64>,
) -> String {
    let mut ctx = SimContext::new(platform, timing, port);
    if let Some(fault_seed) = faults {
        let plan = FaultPlan::new(FaultConfig::with_rate(0.4), fault_seed).unwrap();
        ctx = ctx.with_fault_plan(plan);
    }
    drive_adversary(&mut ctx, ranged, 0x0704 ^ port as u64);
    fingerprint(&ctx)
}

/// Ranged descriptors against the forced-scalar per-row loop on all
/// three platforms: column-major, motion-search and streaming patterns
/// (tens of thousands of rows — over a million line touches in
/// aggregate) must leave bit-identical machine state.
#[test]
fn ranged_adversaries_match_forced_scalar_walk() {
    for (name, platform, timing, port) in platforms() {
        let ranged = run_adversary(platform, timing, port, true, None);
        let scalar = run_adversary(platform, timing, port, false, None);
        assert_eq!(ranged, scalar, "platform {name}");
    }
}

/// Same differential with a seeded fault plan attached: `access_range`
/// must take the scalar path under faults and consume exactly the same
/// random draws as the hand-written loop.
#[test]
fn ranged_adversaries_match_forced_scalar_under_faults() {
    for (name, platform, timing, port) in platforms() {
        let ranged = run_adversary(platform, timing, port, true, Some(0xFA58 ^ port as u64));
        let scalar = run_adversary(platform, timing, port, false, Some(0xFA58 ^ port as u64));
        assert_eq!(ranged, scalar, "platform {name}");
    }
}

/// Same differential with tracing attached: fingerprints and tracer
/// metric totals must both match.
#[test]
fn ranged_adversaries_match_forced_scalar_with_tracing() {
    for (name, platform, timing, port) in platforms() {
        let ta = Tracer::new();
        let tb = Tracer::new();
        let mut a = SimContext::new(platform, timing, port).with_tracer(&ta);
        let mut b = SimContext::new(platform, timing, port).with_tracer(&tb);
        drive_adversary(&mut a, true, 0x0705);
        drive_adversary(&mut b, false, 0x0705);
        assert_eq!(fingerprint(&a), fingerprint(&b), "platform {name}");
        assert_eq!(ta.metrics().to_json(), tb.metrics().to_json(), "platform {name}");
    }
}
