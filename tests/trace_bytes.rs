//! Pinned bytes of a traced, faulted run: the Chrome trace and the
//! metrics dump of the smoke kernel catalog under a 0.5 fault plan must
//! hash to recorded constants. `trace_determinism.rs` checks that two runs
//! agree with each other; this checks that they agree with every earlier
//! build, so a change to the tracer, its exporters or the metric booking
//! that moves one output byte fails here.

use dmpim::core::{ExecutionMode, FaultConfig, OffloadEngine, Tracer};
use pim_bench::jobs::kernel_catalog;

/// The fault plan of the `traced-faulted` benchmark workload.
const FAULT_RATE: f64 = 0.5;
const FAULT_SEED: u64 = 7;

/// `(kernel, FNV-1a of chrome_trace(), FNV-1a of metrics().to_json())`,
/// one fresh tracer per kernel over its three modes. Recorded before the
/// tracer took its args arena, single-lock shard writer and hand-rolled
/// export writers, none of which may move a byte.
const PINNED: [(&str, u64, u64); 2] = [
    ("texture tiling", 0x72e3_1734_605a_384b, 0x6591_dac2_a2e3_1f35),
    ("color blitting", 0x453b_1e4e_7a65_bda2, 0x940a_6356_f850_131a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn faulted_trace_and_metrics_bytes_are_pinned() {
    let mut recoveries = 0;
    let got: Vec<(&str, u64, u64)> = kernel_catalog(true)
        .into_iter()
        .map(|(name, _, make)| {
            let mut kernel = make();
            let tracer = Tracer::new();
            let engine = OffloadEngine::new()
                .with_tracer(&tracer)
                .with_faults(FaultConfig::with_rate(FAULT_RATE), FAULT_SEED);
            for mode in ExecutionMode::ALL {
                match engine.try_run(kernel.as_mut(), mode) {
                    Ok(r) => recoveries += r.degradation.map_or(0, |d| d.retries + d.fallbacks),
                    Err(e) => panic!("{name}@{}: {e}", mode.label()),
                }
            }
            let trace = fnv1a(tracer.chrome_trace().as_bytes());
            (name, trace, fnv1a(tracer.metrics().to_json().as_bytes()))
        })
        .collect();
    assert!(recoveries > 0, "the plan must exercise retry or fallback");
    assert_eq!(got, PINNED);
}
