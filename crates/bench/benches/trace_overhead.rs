//! Wall-clock overhead of the tracing layer.
//!
//! Runs the same kernel through the offload engine in four modes —
//! no tracer attached (the pre-tracing baseline), a disabled tracer
//! attached, a metrics-only tracer (the server's), and a tracer that
//! also records events — comparing best-of-N wall times. The disabled
//! tracer is the claimed no-op fast path: its best-of-N ratio against
//! the baseline is asserted to be under 1.05 in full mode. The other
//! ratios are reported for information, and so is the case a server
//! meets: two threads running the kernel at once into one metrics-only
//! tracer, as wall time per run beside the one-thread metrics-only time.
//! `--smoke` (used by `scripts/check.sh`) runs a single small repetition
//! and only prints — wall-clock assertions are too noisy for shared CI
//! runners.
//!
//! ```text
//! cargo bench -p pim-bench --bench trace_overhead            # assert <5%
//! cargo bench -p pim-bench --bench trace_overhead -- --smoke # print only
//! ```

use std::hint::black_box;
use std::time::Instant;

use pim_chrome::tiling::TextureTilingKernel;
use pim_core::{ExecutionMode, OffloadEngine, Tracer};

#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    Disabled,
    MetricsOnly,
    Enabled,
}

/// Best-of-`reps` wall time of one run, in seconds. A fresh tracer per
/// rep keeps the enabled-mode event buffer from growing across
/// repetitions and skewing later samples.
fn best_of(reps: u32, px: usize, mode: Mode) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let engine = match mode {
            Mode::Baseline => OffloadEngine::new(),
            Mode::Disabled => OffloadEngine::new().with_tracer(&Tracer::disabled()),
            Mode::MetricsOnly => OffloadEngine::new().with_tracer(&Tracer::metrics_only()),
            Mode::Enabled => OffloadEngine::new().with_tracer(&Tracer::new()),
        };
        let mut k = TextureTilingKernel::new(px, px, u64::from(rep));
        let t0 = Instant::now();
        black_box(engine.run(&mut k, ExecutionMode::PimAcc));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall time per run when two threads each run the kernel
/// once, at the same time, through engines sharing one metrics-only
/// tracer, as two server workers do.
fn shared_tracer_best_of(reps: u32, px: usize) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let tracer = Tracer::metrics_only();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for thread in 0..2 {
                let tracer = &tracer;
                s.spawn(move || {
                    let engine = OffloadEngine::new().with_tracer(tracer);
                    let mut k = TextureTilingKernel::new(px, px, u64::from(2 * rep + thread));
                    black_box(engine.run(&mut k, ExecutionMode::PimAcc));
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64() / 2.0);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, px) = if smoke { (3, 128) } else { (20, 512) };
    black_box(best_of(2, px, Mode::Baseline)); // warmup
    let base = best_of(reps, px, Mode::Baseline);
    let off = best_of(reps, px, Mode::Disabled);
    let metrics = best_of(reps, px, Mode::MetricsOnly);
    let on = best_of(reps, px, Mode::Enabled);
    println!(
        "trace_overhead: baseline {:>8.2} ms, disabled-tracer {:>8.2} ms (x{:.4}), enabled {:>8.2} ms (x{:.2})",
        base * 1e3,
        off * 1e3,
        off / base,
        on * 1e3,
        on / base
    );
    println!(
        "trace_overhead: metrics-only tracer {:>8.2} ms (x{:.2})",
        metrics * 1e3,
        metrics / base
    );
    let shared = shared_tracer_best_of(reps, px);
    println!(
        "trace_overhead: metrics-only, 1 thread {:>8.2} ms/run; 2 threads on one tracer {:>8.2} ms/run (x{:.2})",
        metrics * 1e3,
        shared * 1e3,
        shared / metrics
    );
    if smoke {
        println!("trace_overhead: smoke mode, ratio not asserted");
        return;
    }
    let ratio = off / base;
    assert!(
        ratio < 1.05,
        "disabled-tracer overhead {:.2}% exceeds the 5% budget",
        (ratio - 1.0) * 100.0
    );
    println!("trace_overhead: PASS (disabled tracer <5% overhead)");
}
