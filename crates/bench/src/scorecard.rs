//! The machine-readable scorecard behind `repro --json`.
//!
//! `EXPERIMENTS.md` records paper-vs-measured values as a hand-maintained
//! table; this module computes the headline subset of those quantities
//! programmatically and renders them as structured JSON so downstream
//! tooling (CI dashboards, regression diffing) can consume the
//! reproduction's state without scraping markdown.
//!
//! Measurement and aggregation are split so the harness can parallelize
//! the former: each sweep job's payload holds one [`ModeShard`] record
//! per study mode it ran, [`metrics_from_shards`] folds a kernel's three
//! records into its [`KernelMetrics`], and [`entries_from_metrics`] folds
//! those into scorecard entries. `f64`s travel as Rust's shortest
//! round-trip decimals, so a scorecard rebuilt from journaled payloads is
//! bit-identical to one computed in-process.

use pim_core::area::AreaModel;
use pim_core::report::mean;
use pim_core::{ExecutionMode, JsonValue, PimTargetKind, RunReport};
use pim_harness::{FailureSummary, SweepReport};
use pim_obs::ExplainRecord;

use crate::explain::{mode_slug, record_from_report};

/// The paper's mean PIM-Acc speedup over CPU-only, the one figure the
/// scorecard row, `BENCH_explain.json`'s `headline_gap` and the
/// `--explain` prose all compare against.
pub const PAPER_ACC_SPEEDUP: f64 = 1.54;

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct ScorecardEntry {
    /// Experiment id (matches `EXPERIMENTS` / `DESIGN.md`).
    pub id: &'static str,
    /// What is being compared.
    pub quantity: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This reproduction's value.
    pub measured: f64,
    /// `match` (within 15%), `band` (within 60%), else `divergent`.
    pub verdict: &'static str,
}

fn verdict(paper: f64, measured: f64) -> &'static str {
    if paper == 0.0 {
        return if measured == 0.0 { "match" } else { "divergent" };
    }
    let rel = (measured - paper).abs() / paper.abs();
    if rel <= 0.15 {
        "match"
    } else if rel <= 0.60 {
        "band"
    } else {
        "divergent"
    }
}

fn entry(id: &'static str, quantity: &'static str, paper: f64, measured: f64) -> ScorecardEntry {
    ScorecardEntry { id, quantity, paper, measured, verdict: verdict(paper, measured) }
}

/// The measurements one kernel contributes to the scorecard, in a form
/// that survives a journal round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMetrics {
    /// Kernel display name (catalog key).
    pub name: String,
    /// Which paper target the kernel belongs to (drives grouping).
    pub kind: PimTargetKind,
    /// CPU-only data-movement energy share.
    pub dm: f64,
    /// PIM-Core energy reduction vs CPU-only (1 − E_core/E_cpu).
    pub core_cut: f64,
    /// PIM-Acc energy reduction vs CPU-only.
    pub acc_cut: f64,
    /// PIM-Acc speedup vs CPU-only.
    pub acc_speed: f64,
}

impl KernelMetrics {
    /// Derive the measurements from the three study-mode reports.
    pub fn from_reports(
        name: &str,
        kind: PimTargetKind,
        cpu: &RunReport,
        core: &RunReport,
        acc: &RunReport,
    ) -> Self {
        Self {
            name: name.to_string(),
            kind,
            dm: cpu.energy.data_movement_fraction(),
            core_cut: 1.0 - core.energy_vs(cpu),
            acc_cut: 1.0 - acc.energy_vs(cpu),
            acc_speed: acc.speedup_vs(cpu),
        }
    }

    /// Encode as `name|kind|dm|core_cut|acc_cut|acc_speed`. The floats
    /// use shortest round-trip formatting, so [`KernelMetrics::parse`]
    /// recovers the exact bits.
    pub fn to_line(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.name,
            self.kind.label(),
            self.dm,
            self.core_cut,
            self.acc_cut,
            self.acc_speed
        )
    }

    /// Inverse of [`KernelMetrics::to_line`]; `None` on any malformed
    /// field (a corrupted journal line degrades to a missing kernel, not
    /// a crash).
    pub fn parse(line: &str) -> Option<Self> {
        let mut parts = line.split('|');
        let name = parts.next()?.to_string();
        let kind_label = parts.next()?;
        let kind = PimTargetKind::ALL.into_iter().find(|k| k.label() == kind_label)?;
        let dm = parts.next()?.parse().ok()?;
        let core_cut = parts.next()?.parse().ok()?;
        let acc_cut = parts.next()?.parse().ok()?;
        let acc_speed = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self { name, kind, dm, core_cut, acc_cut, acc_speed })
    }
}

/// One kernel × study-mode run, as a sweep job's payload carries it: the
/// run's attribution record plus the values the scorecard folds.
///
/// Its JSON form is the [`ExplainRecord`] object that `BENCH_explain.json`
/// archives, plus `kind`, `total_pj` and `dm`, so a record has one shape
/// in the payload, the journal and the archive. A job's payload is a JSON
/// array of these, one per mode it ran: three for a whole kernel, one for
/// a mode shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeShard {
    /// Which paper target the kernel belongs to.
    pub kind: PimTargetKind,
    /// The run's total energy, `RunReport::energy.total_pj()`. The
    /// record's energy lanes sum the same meters in another order, so
    /// the exact total travels on its own.
    pub total_pj: f64,
    /// The run's data-movement energy fraction (used from the CPU-Only
    /// record; carried on all three for symmetry).
    pub dm: f64,
    /// The run's attribution: kernel name, mode slug, runtime and the
    /// six-component cycle and energy breakdowns.
    pub record: ExplainRecord,
}

impl ModeShard {
    /// Capture one study-mode report.
    pub fn from_report(name: &str, kind: PimTargetKind, report: &RunReport) -> Self {
        Self {
            kind,
            total_pj: report.energy.total_pj(),
            dm: report.energy.data_movement_fraction(),
            record: record_from_report(name, report),
        }
    }

    /// Whether this is the record of kernel `name` run in `mode`.
    pub fn is(&self, name: &str, mode: ExecutionMode) -> bool {
        self.record.kernel == name && self.record.mode == mode_slug(mode)
    }

    /// The record's JSON object: [`ExplainRecord::to_json_value`] plus
    /// `kind`, `total_pj` and `dm`.
    pub fn to_json_value(&self) -> JsonValue {
        self.record
            .to_json_value()
            .set("kind", self.kind.label())
            .set("total_pj", self.total_pj)
            .set("dm", self.dm)
    }

    /// Inverse of [`ModeShard::to_json_value`], with the exact `f64`
    /// bits; `None` on a missing or mistyped field or an unknown kind.
    pub fn from_json_value(v: &JsonValue) -> Option<Self> {
        let kind = v.get("kind")?.as_str()?;
        Some(Self {
            kind: PimTargetKind::ALL.into_iter().find(|k| k.label() == kind)?,
            total_pj: v.get("total_pj")?.as_f64()?,
            dm: v.get("dm")?.as_f64()?,
            record: ExplainRecord::from_json_value(v)?,
        })
    }
}

/// Merge the three study-mode records of one kernel into its metrics.
///
/// Performs bit-for-bit the arithmetic of [`KernelMetrics::from_reports`]
/// on the values the records transported, so the result is bit-identical
/// to measuring all three modes in one job — the property that keeps a
/// sharded scorecard byte-identical at any worker count.
pub fn metrics_from_shards(cpu: &ModeShard, core: &ModeShard, acc: &ModeShard) -> KernelMetrics {
    KernelMetrics {
        name: cpu.record.kernel.clone(),
        kind: cpu.kind,
        dm: cpu.dm,
        core_cut: 1.0 - core.total_pj / cpu.total_pj,
        acc_cut: 1.0 - acc.total_pj / cpu.total_pj,
        acc_speed: cpu.record.runtime_ps as f64 / acc.record.runtime_ps as f64,
    }
}

/// Fold per-mode records into kernel metrics, one per kernel whose three
/// study modes are all present, in the order of its CPU-Only records.
pub fn metrics_from_records(records: &[ModeShard]) -> Vec<KernelMetrics> {
    let find = |name: &str, mode| records.iter().find(|r| r.is(name, mode));
    records
        .iter()
        .filter(|r| r.record.mode == mode_slug(ExecutionMode::CpuOnly))
        .filter_map(|cpu| {
            let name = cpu.record.kernel.as_str();
            Some(metrics_from_shards(
                cpu,
                find(name, ExecutionMode::PimCore)?,
                find(name, ExecutionMode::PimAcc)?,
            ))
        })
        .collect()
}

/// Fold per-kernel measurements into the paper-vs-measured entries.
pub fn entries_from_metrics(metrics: &[KernelMetrics]) -> Vec<ScorecardEntry> {
    let mut dm = Vec::new();
    let mut core_cut = Vec::new();
    let mut acc_cut = Vec::new();
    let mut acc_speed = Vec::new();
    let mut browser_core_cut = Vec::new();
    let mut video_acc_cut = Vec::new();
    let mut tiling_dm = None;
    for m in metrics {
        dm.push(m.dm);
        core_cut.push(m.core_cut);
        acc_cut.push(m.acc_cut);
        acc_speed.push(m.acc_speed);
        match m.kind {
            PimTargetKind::TextureTiling
            | PimTargetKind::ColorBlitting
            | PimTargetKind::Compression => {
                browser_core_cut.push(m.core_cut);
            }
            PimTargetKind::SubPixelInterpolation
            | PimTargetKind::DeblockingFilter
            | PimTargetKind::MotionEstimation => {
                video_acc_cut.push(m.acc_cut);
            }
            _ => {}
        }
        if m.kind == PimTargetKind::TextureTiling {
            tiling_dm = Some(m.dm);
        }
    }

    let mut out = vec![
        entry("headline", "avg CPU-only data-movement energy share", 0.627, mean(&dm)),
        entry("headline", "avg PIM-Core energy reduction", 0.491, mean(&core_cut)),
        entry("headline", "avg PIM-Acc energy reduction", 0.554, mean(&acc_cut)),
        entry("headline", "avg PIM-Acc speedup", PAPER_ACC_SPEEDUP, mean(&acc_speed)),
        entry(
            "area",
            "PIM core fraction of per-vault area budget",
            0.094,
            AreaModel::default().pim_core_fraction(),
        ),
    ];
    if let Some(t) = tiling_dm {
        out.push(entry("fig2", "texture-tiling data-movement energy share", 0.815, t));
    }
    if !browser_core_cut.is_empty() {
        out.push(entry(
            "fig18",
            "browser kernels avg PIM-Core energy reduction",
            0.513,
            mean(&browser_core_cut),
        ));
    }
    if !video_acc_cut.is_empty() {
        out.push(entry(
            "fig20",
            "video kernels avg PIM-Acc energy reduction",
            0.666,
            mean(&video_acc_cut),
        ));
    }
    out
}

/// Compute the scorecard. `smoke` swaps the full nine-kernel paper-scale
/// sweep for two small kernels (tests); the CLI always runs full scale.
pub fn scorecard(smoke: bool) -> Vec<ScorecardEntry> {
    entries_from_metrics(&crate::jobs::collect_metrics(smoke))
}

/// Known divergences the CI gate accepts, as `(id, quantity)` pairs.
/// Each one must be documented in `EXPERIMENTS.md`; currently the single
/// waiver is the headline PIM-Acc speedup, where this reproduction's
/// accelerators outperform the paper's average (see EXPERIMENTS.md).
pub const WAIVED_DIVERGENCES: [(&str, &str); 1] = [("headline", "avg PIM-Acc speedup")];

/// The reasons a `repro --json` or `repro --explain` run should exit
/// non-zero: non-waived divergent verdicts, every catalog kernel × mode
/// (`missing`, named `kernel@mode`) the sweep has no readable record
/// for, plus any quarantined or failed sweep jobs. A missing record is a
/// failure on its own: a payload that no longer parses (an edited or
/// outdated journal) would otherwise drop a kernel from every mean.
pub fn gate_failures(
    entries: &[ScorecardEntry],
    missing: &[String],
    harness: Option<&FailureSummary>,
) -> Vec<String> {
    let mut out = Vec::new();
    for e in entries {
        let waived =
            WAIVED_DIVERGENCES.iter().any(|&(id, q)| id == e.id && q == e.quantity);
        if e.verdict == "divergent" && !waived {
            out.push(format!(
                "scorecard: {}/{} divergent (paper {}, measured {})",
                e.id, e.quantity, e.paper, e.measured
            ));
        }
    }
    for m in missing {
        out.push(format!("sweep: no readable record for {m}"));
    }
    if let Some(s) = harness {
        if s.quarantined > 0 {
            out.push(format!("harness: {} job(s) quarantined", s.quarantined));
        }
        if s.failed > 0 {
            out.push(format!("harness: {} job(s) failed", s.failed));
        }
    }
    out
}

/// Render entries as the `repro --json` document.
pub fn to_json(entries: &[ScorecardEntry]) -> String {
    to_json_with_harness(entries, None)
}

/// Render entries plus the harness failure report (when the scorecard
/// was produced by a supervised sweep) as the `repro --json` document.
pub fn to_json_with_harness(entries: &[ScorecardEntry], harness: Option<&SweepReport>) -> String {
    let mut doc = JsonValue::object()
        .set("source", "dmpim repro --json")
        .set("scorecard", entries_json(entries))
        .set("scorecard_summary", summary_value(entries));
    if let Some(report) = harness {
        doc = doc.set("harness", report.to_json_value());
    }
    doc.render_pretty()
}

/// The `scorecard` array, one object per entry: the same bytes in the
/// `repro --json` document and in `BENCH_repro.json`.
pub fn entries_json(entries: &[ScorecardEntry]) -> JsonValue {
    let mut arr = JsonValue::array();
    for e in entries {
        arr = arr.push(
            JsonValue::object()
                .set("id", e.id)
                .set("quantity", e.quantity)
                .set("paper", e.paper)
                .set("measured", e.measured)
                .set("verdict", e.verdict),
        );
    }
    arr
}

/// The `scorecard_summary` block: verdict counts plus the waived
/// divergences, so dashboards can read the reproduction's state without
/// re-deriving it from the entry array.
fn summary_value(entries: &[ScorecardEntry]) -> JsonValue {
    let count = |v: &str| entries.iter().filter(|e| e.verdict == v).count() as u64;
    let mut waived = JsonValue::array();
    for e in entries {
        if e.verdict == "divergent"
            && WAIVED_DIVERGENCES.iter().any(|&(id, q)| id == e.id && q == e.quantity)
        {
            waived = waived
                .push(JsonValue::object().set("id", e.id).set("quantity", e.quantity));
        }
    }
    JsonValue::object()
        .set("entries", entries.len() as u64)
        .set("match", count("match"))
        .set("band", count("band"))
        .set("divergent", count("divergent"))
        .set("waived", waived)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scorecard_has_stable_structure() {
        let entries = scorecard(true);
        assert!(entries.len() >= 6, "{entries:?}");
        assert!(entries.iter().any(|e| e.id == "headline"));
        assert!(entries.iter().any(|e| e.id == "area"));
        assert!(entries.iter().any(|e| e.id == "fig2"));
        for e in &entries {
            assert!(e.measured.is_finite(), "{e:?}");
            assert!(["match", "band", "divergent"].contains(&e.verdict));
        }
        // The area model is input-independent: always a match.
        let area = entries.iter().find(|e| e.id == "area").unwrap();
        assert_eq!(area.verdict, "match");
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let a = to_json(&scorecard(true));
        let b = to_json(&scorecard(true));
        assert_eq!(a, b);
        assert!(a.contains("\"scorecard\""));
        assert!(a.contains("\"verdict\""));
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
    }

    #[test]
    fn verdict_bands() {
        assert_eq!(verdict(1.0, 1.1), "match");
        assert_eq!(verdict(1.0, 1.5), "band");
        assert_eq!(verdict(1.0, 3.0), "divergent");
        assert_eq!(verdict(0.0, 0.0), "match");
    }

    #[test]
    fn metrics_line_round_trips_exact_bits() {
        let m = KernelMetrics {
            name: "texture tiling".to_string(),
            kind: PimTargetKind::TextureTiling,
            dm: 0.1 + 0.2, // deliberately non-representable
            core_cut: f64::MIN_POSITIVE,
            acc_cut: 1.0 / 3.0,
            acc_speed: 2.940000000000001,
        };
        let back = KernelMetrics::parse(&m.to_line()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.dm.to_bits(), m.dm.to_bits());
        assert_eq!(back.acc_speed.to_bits(), m.acc_speed.to_bits());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(KernelMetrics::parse("too|few|fields").is_none());
        assert!(KernelMetrics::parse("n|no-such-kind|0.1|0.2|0.3|1.0").is_none());
        assert!(KernelMetrics::parse("n|texture tiling|0.1|0.2|0.3|1.0|extra").is_none());
        assert!(KernelMetrics::parse("n|texture tiling|0.1|0.2|xyz|1.0").is_none());
        assert!(KernelMetrics::parse("n|texture tiling|0.1|0.2|0.3|1.0").is_some());
    }

    #[test]
    fn mode_record_json_round_trips_exact_bits() {
        let record = ExplainRecord {
            kernel: "motion estimation".to_string(),
            mode: "pim-acc".to_string(),
            runtime_ps: 123_456_789,
            cycle_ps: [0.1 + 0.2, f64::MIN_POSITIVE, 1e20, 0.0, 1.0 / 3.0, 7.5],
            energy_pj: [1e20, 0.1 + 0.2, 0.0, f64::MIN_POSITIVE, 2.0 / 3.0, 1e-300],
            row_hit_rate: 0.1 + 0.2,
            mpki: 1e20,
            bytes_moved: u64::MAX,
        };
        let s = ModeShard {
            kind: PimTargetKind::MotionEstimation,
            total_pj: 0.1 + 0.2, // deliberately non-representable
            dm: f64::MIN_POSITIVE,
            record,
        };
        let text = s.to_json_value().render();
        // The writer prints an integral float without an exponent.
        assert!(text.contains(":100000000000000000000,"), "{text}");
        let back = ModeShard::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        let bits = |m: &ModeShard| {
            let r = &m.record;
            let mut v = vec![m.total_pj, m.dm, r.row_hit_rate, r.mpki];
            v.extend(r.cycle_ps.iter().chain(&r.energy_pj));
            v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&s));
        assert_eq!(back.to_json_value().render(), text);
        // An unknown kind, or a missing raw field, reads as no record.
        let edited =
            text.replace("\"kind\":\"motion estimation\"", "\"kind\":\"motion-estimation\"");
        assert!(ModeShard::from_json_value(&JsonValue::parse(&edited).unwrap()).is_none());
        let no_cycles = text.replace("\"cycle_ps\"", "\"cycles\"");
        assert!(ModeShard::from_json_value(&JsonValue::parse(&no_cycles).unwrap()).is_none());
    }

    #[test]
    fn gate_waives_documented_divergences_only() {
        let waived = entry("headline", "avg PIM-Acc speedup", PAPER_ACC_SPEEDUP, 2.94);
        assert_eq!(waived.verdict, "divergent");
        assert!(gate_failures(&[waived], &[], None).is_empty());

        let real = entry("fig2", "texture-tiling data-movement energy share", 0.815, 0.1);
        assert_eq!(real.verdict, "divergent");
        let failures = gate_failures(&[real], &[], None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("fig2"));
        let missing = ["texture tiling@CPU-Only".to_string()];
        let failures = gate_failures(&[], &missing, None);
        assert_eq!(failures, ["sweep: no readable record for texture tiling@CPU-Only"]);
    }

    #[test]
    fn gate_flags_quarantined_and_failed_jobs() {
        let mut summary = FailureSummary { total: 3, succeeded: 1, ..Default::default() };
        summary.quarantined = 1;
        summary.failed = 1;
        let failures = gate_failures(&[], &[], Some(&summary));
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("quarantined")));
        assert!(failures.iter().any(|f| f.contains("failed")));
    }
}
