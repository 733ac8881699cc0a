//! Cross-layer attribution invariants (`repro --explain`), exercised
//! through the public `pim-bench`/`pim-obs` API.
//!
//! Two properties gate the feature: every record's component shares are
//! a true partition of its cost (sum to 1 within 1e-9), and the records
//! the scorecard sweep carries are bit-identical however many harness
//! workers produce them — attribution must never depend on scheduling.

use pim_bench::explain::headline_gap;
use pim_bench::jobs::scorecard_sweep;
use pim_harness::HarnessPolicy;
use pim_obs::{ExplainRecord, COMPONENT_LABELS};

/// The smoke sweep's attribution records at `workers` workers.
fn records(workers: usize) -> Vec<ExplainRecord> {
    let policy = HarnessPolicy { workers, ..HarnessPolicy::default() };
    let out = scorecard_sweep(true, policy, None, false).unwrap();
    assert!(out.report.summary().all_ok(), "{:?}", out.report);
    assert!(out.missing.is_empty(), "{:?}", out.missing);
    out.explain_records()
}

#[test]
fn shares_partition_the_cost_for_every_kernel_and_mode() {
    let records = records(2);
    assert!(!records.is_empty());
    for r in &records {
        let cs: f64 = r.cycle_shares().iter().sum();
        assert!(
            (cs - 1.0).abs() <= 1e-9,
            "{}/{}: cycle shares sum to {cs}",
            r.kernel,
            r.mode
        );
        let es: f64 = r.energy_shares().iter().sum();
        assert!(
            (es - 1.0).abs() <= 1e-9,
            "{}/{}: energy shares sum to {es}",
            r.kernel,
            r.mode
        );
        // The cycle attribution accounts for the whole modeled runtime.
        let total: f64 = r.cycle_ps.iter().sum();
        assert!(
            total <= r.runtime_ps as f64 * (1.0 + 1e-9) + 1.0,
            "{}/{}: attributed {total} ps exceeds runtime {} ps",
            r.kernel,
            r.mode,
            r.runtime_ps
        );
    }
}

#[test]
fn attribution_is_bit_identical_across_worker_counts() {
    let render = |records: Vec<ExplainRecord>| -> Vec<String> {
        records.iter().map(|r| r.to_json_value().render()).collect()
    };
    let s = render(records(1));
    let p = render(records(4));
    assert_eq!(s, p, "explain records must not depend on worker scheduling");
}

#[test]
fn headline_gap_is_internally_consistent() {
    let h = headline_gap(&records(2)).expect("smoke catalog has cpu/acc pairs");
    assert!(h.measured_speedup > 1.0, "PIM-Acc should beat CPU-only");
    // Component deltas sum to the total saved time, and their shares
    // partition it.
    let delta_sum: f64 = h.gap.delta_ps.iter().sum();
    assert!((delta_sum - h.gap.total_delta_ps).abs() <= 1e-6 * h.gap.total_delta_ps.abs());
    let share_sum: f64 = h.gap.shares.iter().sum();
    assert!((share_sum - 1.0).abs() <= 1e-9, "shares sum to {share_sum}");
    let (label, share) = h.gap.dominant();
    assert!(COMPONENT_LABELS.contains(&label));
    assert!(share > 0.0, "the dominant component saves time, not loses it");
}
