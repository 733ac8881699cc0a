//! The attribution behind `repro --explain`.
//!
//! Converts each run's [`pim_core::CostBreakdown`] and
//! [`pim_core::EnergyBreakdown`] into a [`pim_obs::ExplainRecord`] — one
//! per experiment × platform. The records come from the scorecard sweep
//! itself: every job of [`crate::jobs::scorecard_sweep`] carries them in
//! its payload, so `repro --explain` renders the very runs the
//! scorecard folds, and `--jobs 1`, parallel and resumed runs produce
//! bit-identical attributions (the floats travel as shortest-round-trip
//! decimals and the merge keys records by catalog order).
//!
//! The aggregate analysis differences the summed CPU-only attribution
//! against the summed PIM-Acc attribution to localize the headline
//! speedup — this reproduction's 2.94× vs the paper's
//! [`PAPER_ACC_SPEEDUP`] — to specific cost components (see
//! `BENCH_explain.json`'s `headline_gap`).

use pim_core::{Component, ExecutionMode, RunReport};
use pim_harness::SweepReport;
use pim_obs::{attribute_gap, ExplainRecord, GapAttribution};
use pim_trace::JsonValue;

use crate::scorecard::PAPER_ACC_SPEEDUP;

/// Lowercase platform slug used in attribution records.
pub fn mode_slug(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::CpuOnly => "cpu-only",
        ExecutionMode::PimCore => "pim-core",
        ExecutionMode::PimAcc => "pim-acc",
    }
}

/// Convert one run report into an attribution record.
///
/// Cycle attribution copies the context's [`pim_core::CostBreakdown`]
/// verbatim (same six labels, same order). Energy attribution maps the
/// six [`Component`]s onto the same labels: CPU→compute, L1+LLC→cache,
/// MemCtrl→dram-queue, DRAM→dram-service, and Interconnect→pim-link —
/// the interconnect meter covers the off-chip channel (CPU-only), the
/// stacked-memory link, and coherence messages, none of which are
/// separable in the energy model, so the energy `coherence` column is
/// structurally zero (the *cycle* coherence column is real).
pub fn record_from_report(kernel: &str, report: &RunReport) -> ExplainRecord {
    let e = &report.energy;
    let act = &report.activity;
    let row_total = act.row_hits + act.row_misses;
    ExplainRecord {
        kernel: kernel.to_string(),
        mode: mode_slug(report.mode).to_string(),
        runtime_ps: report.runtime_ps,
        cycle_ps: report.cost.as_array(),
        energy_pj: [
            e.get(Component::Cpu),
            e.get(Component::L1) + e.get(Component::Llc),
            0.0,
            e.get(Component::MemCtrl),
            e.get(Component::Dram),
            e.get(Component::Interconnect),
        ],
        row_hit_rate: if row_total == 0 {
            0.0
        } else {
            act.row_hits as f64 / row_total as f64
        },
        mpki: report.mpki,
        bytes_moved: act.offchip_bytes + act.internal_bytes,
    }
}

/// The aggregate headline analysis: summed CPU-only vs summed PIM-Acc
/// attribution across every kernel, plus the measured mean speedup.
pub struct HeadlineGap {
    /// Mean per-kernel PIM-Acc speedup (the scorecard's divergent 2.94×).
    pub measured_speedup: f64,
    /// Catalog-wide CPU-only attribution (sums of per-kernel records).
    pub cpu_total: ExplainRecord,
    /// Catalog-wide PIM-Acc attribution.
    pub acc_total: ExplainRecord,
    /// Component-wise account of the time PIM-Acc saves.
    pub gap: GapAttribution,
}

fn sum_records(records: &[&ExplainRecord], mode: &str) -> ExplainRecord {
    let mut out = ExplainRecord {
        kernel: "ALL".to_string(),
        mode: mode.to_string(),
        runtime_ps: 0,
        cycle_ps: [0.0; 6],
        energy_pj: [0.0; 6],
        row_hit_rate: 0.0,
        mpki: 0.0,
        bytes_moved: 0,
    };
    let mut hits = 0.0;
    for r in records {
        out.runtime_ps += r.runtime_ps;
        for i in 0..6 {
            out.cycle_ps[i] += r.cycle_ps[i];
            out.energy_pj[i] += r.energy_pj[i];
        }
        hits += r.row_hit_rate;
        out.mpki += r.mpki;
        out.bytes_moved += r.bytes_moved;
    }
    if !records.is_empty() {
        out.row_hit_rate = hits / records.len() as f64;
        out.mpki /= records.len() as f64;
    }
    out
}

/// Compute the headline-gap analysis from a full record set. `None` when
/// the set has no CPU-only/PIM-Acc pairs to compare.
pub fn headline_gap(records: &[ExplainRecord]) -> Option<HeadlineGap> {
    let cpu: Vec<&ExplainRecord> = records.iter().filter(|r| r.mode == "cpu-only").collect();
    let acc: Vec<&ExplainRecord> = records.iter().filter(|r| r.mode == "pim-acc").collect();
    if cpu.is_empty() || acc.is_empty() {
        return None;
    }
    let mut speedups = Vec::new();
    for c in &cpu {
        if let Some(a) = acc.iter().find(|a| a.kernel == c.kernel) {
            if a.runtime_ps > 0 {
                speedups.push(c.runtime_ps as f64 / a.runtime_ps as f64);
            }
        }
    }
    let cpu_total = sum_records(&cpu, "cpu-only");
    let acc_total = sum_records(&acc, "pim-acc");
    let gap = attribute_gap(&cpu_total, &acc_total);
    Some(HeadlineGap {
        measured_speedup: pim_core::report::mean(&speedups),
        cpu_total,
        acc_total,
        gap,
    })
}

/// Render the full `BENCH_explain.json` document.
pub fn explain_json(records: &[ExplainRecord], report: &SweepReport) -> String {
    let mut arr = JsonValue::array();
    for r in records {
        arr = arr.push(r.to_json_value());
    }
    let mut doc = JsonValue::object()
        .set("source", "dmpim repro --explain")
        .set("records", arr);
    if let Some(h) = headline_gap(records) {
        doc = doc.set(
            "headline_gap",
            JsonValue::object()
                .set("paper_speedup", PAPER_ACC_SPEEDUP)
                .set("measured_speedup", h.measured_speedup)
                .set("cpu_total", h.cpu_total.to_json_value())
                .set("acc_total", h.acc_total.to_json_value())
                .set("attribution", h.gap.to_json_value()),
        );
    }
    doc = doc.set("harness", report.to_json_value());
    doc.render_pretty()
}

/// The human-readable `--explain` report: the per-record table plus a
/// prose localization of the headline speedup gap.
pub fn explain_text(records: &[ExplainRecord]) -> String {
    let mut out = pim_obs::render_explain_table(records);
    if let Some(h) = headline_gap(records) {
        let (label, share) = h.gap.dominant();
        out.push('\n');
        out.push_str(&format!(
            "headline: measured mean PIM-Acc speedup {:.2}x (paper: {PAPER_ACC_SPEEDUP:.2}x)\n",
            h.measured_speedup
        ));
        out.push_str(&format!(
            "gap attribution: of the {:.3} ms PIM-Acc saves over CPU-only across the catalog,\n",
            h.gap.total_delta_ps / 1e9
        ));
        for (i, l) in pim_obs::COMPONENT_LABELS.iter().enumerate() {
            out.push_str(&format!(
                "  {l:>12}: {:>6.1}%  ({:+.3} ms)\n",
                h.gap.shares[i] * 100.0,
                h.gap.delta_ps[i] / 1e9
            ));
        }
        out.push_str(&format!(
            "dominant component: {label} ({:.1}% of the saved time) — the simulated CPU \
             spends most of its extra time there, which is why this reproduction's \
             speedup overshoots the paper's average\n",
            share * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use pim_harness::HarnessPolicy;

    use super::*;
    use crate::jobs::{kernel_catalog, scorecard_sweep};

    fn sweep_records(workers: usize) -> (Vec<ExplainRecord>, SweepReport) {
        let policy = HarnessPolicy { workers, ..Default::default() };
        let out = scorecard_sweep(true, policy, None, false).unwrap();
        assert!(out.missing.is_empty(), "{:?}", out.missing);
        (out.explain_records(), out.report)
    }

    fn smoke_records() -> (Vec<ExplainRecord>, SweepReport) {
        sweep_records(HarnessPolicy::default().workers)
    }

    #[test]
    fn sweep_yields_one_record_per_kernel_and_mode() {
        let (records, report) = smoke_records();
        assert!(report.all_ok(), "{:?}", report.summary());
        let kernels = kernel_catalog(true).len();
        assert_eq!(records.len(), kernels * 3);
        for (_name, _kind, _f) in kernel_catalog(true) {
            for mode in ExecutionMode::ALL {
                assert!(
                    records.iter().any(|r| r.kernel == _name && r.mode == mode_slug(mode)),
                    "missing {}/{}",
                    _name,
                    mode_slug(mode)
                );
            }
        }
    }

    #[test]
    fn cycle_shares_sum_to_one_and_match_runtime() {
        let (records, _) = smoke_records();
        for r in &records {
            let total: f64 = r.cycle_shares().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}/{}: {total}", r.kernel, r.mode);
            let esum: f64 = r.energy_shares().iter().sum();
            assert!((esum - 1.0).abs() < 1e-9, "{}/{}: {esum}", r.kernel, r.mode);
            // Attributed time never exceeds the simulated clock.
            assert!(
                r.cycle_total_ps() <= r.runtime_ps as f64 * (1.0 + 1e-9),
                "{}/{}: attributed {} > runtime {}",
                r.kernel,
                r.mode,
                r.cycle_total_ps(),
                r.runtime_ps
            );
        }
    }

    #[test]
    fn headline_gap_names_a_dominant_component() {
        let (records, report) = smoke_records();
        let h = headline_gap(&records).expect("cpu and acc records exist");
        assert!(h.measured_speedup > 1.0, "PIM-Acc should win: {}", h.measured_speedup);
        assert!(h.gap.total_delta_ps > 0.0);
        let (label, share) = h.gap.dominant();
        assert!(pim_obs::COMPONENT_LABELS.contains(&label));
        assert!(share > 0.0);
        let text = explain_text(&records);
        assert!(text.contains("dominant component"), "{text}");
        assert!(text.contains(label), "{text}");
        let json = explain_json(&records, &report);
        assert!(json.contains("\"headline_gap\""), "{json}");
        assert!(json.contains("\"dominant_component\""), "{json}");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let render = |records: Vec<ExplainRecord>| -> Vec<String> {
            records.iter().map(|r| r.to_json_value().render()).collect()
        };
        let serial = render(sweep_records(1).0);
        let parallel = render(sweep_records(4).0);
        assert_eq!(serial, parallel, "attribution must not depend on worker count");
    }
}
