//! Throughput of the ranged access engine against the per-row scalar walk.
//!
//! A self-contained harness (`cargo bench -p pim-bench --bench hotpath`)
//! timed with `std::time::Instant` — see `kernels.rs` for the rationale.
//! The same strided plane walk is issued once as ranged descriptors and
//! once as the per-row `SimContext::access` loop a descriptor is defined
//! as, so the printout shows what the streak commit buys on each port —
//! plain, and traced under a thermal-throttle fault plan (the streaks
//! then hold the plan's window state and batch their trace metrics).
//! Bit-identity of the two is enforced by `tests/hotpath_differential.rs`.

use std::hint::black_box;
use std::time::Instant;

use pim_core::{
    AccessKind, EngineTiming, FaultConfig, FaultPlan, Platform, Port, SimContext, Tracer,
};

/// Time `f` over `iters` iterations (plus a 10% warm-up) and print the
/// per-iteration latency.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_s = t0.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<40} {:>10.1} us/iter", per_s * 1e6);
}

/// A context on `port`'s platform; `traced_faulted` attaches an enabled
/// tracer and a throttle-only fault plan whose windows cover part of the
/// walk.
fn ctx(port: Port, traced_faulted: bool) -> SimContext {
    let (platform, timing) = match port {
        Port::Cpu => (Platform::baseline(), EngineTiming::soc_cpu()),
        Port::PimCore => (Platform::pim(), EngineTiming::pim_core()),
        Port::PimAccel => (Platform::pim(), EngineTiming::pim_accel()),
    };
    let ctx = SimContext::new(platform, timing, port);
    if !traced_faulted {
        return ctx;
    }
    let throttle = FaultConfig {
        throttle_windows: 3,
        throttle_window_ps: 20_000_000,
        throttle_factor: 1.5,
        horizon_ps: 200_000_000,
        ..FaultConfig::none()
    };
    let plan = FaultPlan::new(throttle, 7).expect("valid throttle plan");
    ctx.with_tracer(&Tracer::new()).with_fault_plan(plan)
}

/// Strided plane walk: 16 rectangles of 512 B x 1024 rows over a
/// 1 KB-pitch, LLC-resident plane — the hot-rect shape the VP9 kernels
/// hand the engine, where row streaks hit and commit in batch. With
/// `ranged` false each descriptor's rows are issued as `access` calls.
fn plane_walk(ctx: &mut SimContext, ranged: bool) {
    const ROW: u64 = 512;
    const PITCH: u64 = 1024;
    const ROWS: u64 = 1024;
    let buf = ctx.alloc(1 << 20);
    for rect in 0..16u64 {
        let addr = buf.addr((rect * 31) % 512);
        if ranged {
            ctx.read_rows(addr, ROW, PITCH, ROWS);
        } else {
            for i in 0..ROWS {
                ctx.access(addr + i * PITCH, ROW, AccessKind::Read);
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 2 } else { 50 };
    for port in [Port::Cpu, Port::PimCore, Port::PimAccel] {
        println!("[{port:?}]");
        for (name, ranged, traced_faulted) in [
            ("ranged_vs_scalar/ranged_64k", true, false),
            ("ranged_vs_scalar/scalar_64k", false, false),
            ("ranged_vs_scalar/traced_faulted_ranged_64k", true, true),
            ("ranged_vs_scalar/traced_faulted_scalar_64k", false, true),
        ] {
            bench(name, iters, || {
                let mut c = ctx(port, traced_faulted);
                plane_walk(&mut c, ranged);
                c.now_ps()
            });
        }
    }
}
