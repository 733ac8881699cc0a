//! Bottleneck attribution records: where did the picoseconds (and
//! picojoules) go?
//!
//! An [`ExplainRecord`] is one experiment × platform cell of the
//! attribution matrix: total runtime decomposed across six cost
//! components, the matching energy decomposition, and the memory-system
//! health indicators (row-hit rate, MPKI, bytes moved). A record has one
//! JSON form ([`ExplainRecord::to_json_value`] and its inverse
//! [`ExplainRecord::from_json_value`]): the object the sweep's job
//! payloads carry and `BENCH_explain.json` archives.
//!
//! [`attribute_gap`] answers the headline question — *which component
//! explains the difference between two runtimes* — by differencing the
//! per-component cycle attributions of a baseline and a comparison
//! record and normalizing by the total runtime delta.

use pim_trace::JsonValue;

/// Component labels, index-aligned with every `[f64; 6]` in this module.
/// Deliberately identical to `pim_core::CostBreakdown::LABELS`: the bench
/// layer converts one into the other by array copy, and the two crates
/// stay decoupled (pim-obs depends only on pim-trace).
pub const COMPONENT_LABELS: [&str; 6] =
    ["compute", "cache", "coherence", "dram-queue", "dram-service", "pim-link"];

/// One experiment × platform attribution record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRecord {
    /// Kernel / experiment id (e.g. `"texture_tiling"`).
    pub kernel: String,
    /// Platform the kernel ran on (e.g. `"cpu-only"`, `"pim-acc"`).
    pub mode: String,
    /// Total simulated runtime in ps.
    pub runtime_ps: u64,
    /// Runtime decomposition in ps, indexed by [`COMPONENT_LABELS`].
    pub cycle_ps: [f64; 6],
    /// Energy decomposition in pJ, indexed by [`COMPONENT_LABELS`].
    pub energy_pj: [f64; 6],
    /// DRAM row-buffer hit rate in `[0, 1]`.
    pub row_hit_rate: f64,
    /// Last-level misses per kilo-instruction.
    pub mpki: f64,
    /// Bytes moved across the memory interface.
    pub bytes_moved: u64,
}

fn shares_of(values: &[f64; 6]) -> [f64; 6] {
    let total: f64 = values.iter().sum();
    let mut out = [0.0; 6];
    if total > 0.0 {
        for (o, v) in out.iter_mut().zip(values) {
            *o = v / total;
        }
    }
    out
}

impl ExplainRecord {
    /// Cycle decomposition normalized to shares summing to 1.0 (all
    /// zeros when the record is empty).
    pub fn cycle_shares(&self) -> [f64; 6] {
        shares_of(&self.cycle_ps)
    }

    /// Energy decomposition normalized to shares summing to 1.0.
    pub fn energy_shares(&self) -> [f64; 6] {
        shares_of(&self.energy_pj)
    }

    /// Total attributed cycle time in ps.
    pub fn cycle_total_ps(&self) -> f64 {
        self.cycle_ps.iter().sum()
    }

    /// JSON object for `BENCH_explain.json`: raw decompositions plus
    /// normalized shares, keyed by component label.
    pub fn to_json_value(&self) -> JsonValue {
        let labelled = |values: &[f64; 6]| {
            let mut o = JsonValue::object();
            for (label, v) in COMPONENT_LABELS.iter().zip(values) {
                o = o.set(label, *v);
            }
            o
        };
        JsonValue::object()
            .set("kernel", self.kernel.as_str())
            .set("mode", self.mode.as_str())
            .set("runtime_ps", self.runtime_ps)
            .set("cycle_ps", labelled(&self.cycle_ps).set("total", self.cycle_total_ps()))
            .set("cycle_shares", labelled(&self.cycle_shares()))
            .set("energy_pj", labelled(&self.energy_pj))
            .set("energy_shares", labelled(&self.energy_shares()))
            .set("row_hit_rate", self.row_hit_rate)
            .set("mpki", self.mpki)
            .set("bytes_moved", self.bytes_moved)
    }

    /// Inverse of [`ExplainRecord::to_json_value`]. Reads the raw
    /// fields and ignores the derived ones (`total`, the share objects)
    /// and any field it does not know, so a record that carries more
    /// fields reads too. Finite floats come back with their exact bits:
    /// the writer prints shortest round-trip decimals (only `-0.0`,
    /// printed `-0`, reads back as `0.0`). `None` on a missing or
    /// mistyped field, which includes a non-finite float the writer
    /// printed as `null`.
    pub fn from_json_value(v: &JsonValue) -> Option<Self> {
        let text = |key: &str| Some(v.get(key)?.as_str()?.to_string());
        let labelled = |key: &str| -> Option<[f64; 6]> {
            let o = v.get(key)?;
            let mut out = [0.0; 6];
            for (slot, label) in out.iter_mut().zip(COMPONENT_LABELS) {
                *slot = o.get(label)?.as_f64()?;
            }
            Some(out)
        };
        Some(Self {
            kernel: text("kernel")?,
            mode: text("mode")?,
            runtime_ps: v.get("runtime_ps")?.as_u64()?,
            cycle_ps: labelled("cycle_ps")?,
            energy_pj: labelled("energy_pj")?,
            row_hit_rate: v.get("row_hit_rate")?.as_f64()?,
            mpki: v.get("mpki")?.as_f64()?,
            bytes_moved: v.get("bytes_moved")?.as_u64()?,
        })
    }
}

/// The per-component account of a runtime difference between two records
/// (typically CPU-only baseline vs PIM-Acc): which component gave up the
/// most time.
#[derive(Debug, Clone, PartialEq)]
pub struct GapAttribution {
    /// `baseline.cycle_ps[i] - comparison.cycle_ps[i]`, in ps. Negative
    /// entries are components that *grew* on the comparison platform
    /// (e.g. pim-link time appearing where there was none).
    pub delta_ps: [f64; 6],
    /// Total runtime delta in ps (sum of `delta_ps`).
    pub total_delta_ps: f64,
    /// `delta_ps / total_delta_ps` — shares of the gap, summing to 1.0
    /// when a gap exists.
    pub shares: [f64; 6],
}

impl GapAttribution {
    /// The component accounting for the largest share of the saved time,
    /// as `(label, share)`.
    pub fn dominant(&self) -> (&'static str, f64) {
        let mut best = 0;
        for i in 1..6 {
            if self.shares[i] > self.shares[best] {
                best = i;
            }
        }
        (COMPONENT_LABELS[best], self.shares[best])
    }

    /// JSON object for the `headline_gap` section of
    /// `BENCH_explain.json`.
    pub fn to_json_value(&self) -> JsonValue {
        let mut delta = JsonValue::object();
        let mut shares = JsonValue::object();
        for (i, label) in COMPONENT_LABELS.iter().enumerate() {
            delta = delta.set(label, self.delta_ps[i]);
            shares = shares.set(label, self.shares[i]);
        }
        let (dom_label, dom_share) = self.dominant();
        JsonValue::object()
            .set("total_delta_ps", self.total_delta_ps)
            .set("delta_ps", delta)
            .set("shares", shares)
            .set("dominant_component", dom_label)
            .set("dominant_share", dom_share)
    }
}

/// Difference two attribution records: where did `baseline`'s time go
/// that `comparison` does not spend?
pub fn attribute_gap(baseline: &ExplainRecord, comparison: &ExplainRecord) -> GapAttribution {
    let mut delta_ps = [0.0; 6];
    for (d, (b, c)) in
        delta_ps.iter_mut().zip(baseline.cycle_ps.iter().zip(&comparison.cycle_ps))
    {
        *d = b - c;
    }
    let total_delta_ps: f64 = delta_ps.iter().sum();
    let mut shares = [0.0; 6];
    if total_delta_ps.abs() > f64::EPSILON {
        for (s, d) in shares.iter_mut().zip(&delta_ps) {
            *s = d / total_delta_ps;
        }
    }
    GapAttribution { delta_ps, total_delta_ps, shares }
}

/// A human-readable attribution table: one row per record, one column
/// per component share, plus runtime and the memory-health indicators.
pub fn render_explain_table(records: &[ExplainRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<24} {:<10} {:>12}", "kernel", "mode", "runtime ms"));
    for label in COMPONENT_LABELS {
        out.push_str(&format!(" {label:>12}"));
    }
    out.push_str(&format!(" {:>8} {:>7}\n", "row-hit", "mpki"));
    for r in records {
        out.push_str(&format!(
            "{:<24} {:<10} {:>12.3}",
            r.kernel,
            r.mode,
            r.runtime_ps as f64 / 1e9
        ));
        for share in r.cycle_shares() {
            out.push_str(&format!(" {:>11.1}%", share * 100.0));
        }
        out.push_str(&format!(" {:>7.1}% {:>7.2}\n", r.row_hit_rate * 100.0, r.mpki));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kernel: &str, mode: &str, cycle_ps: [f64; 6]) -> ExplainRecord {
        ExplainRecord {
            kernel: kernel.into(),
            mode: mode.into(),
            runtime_ps: cycle_ps.iter().sum::<f64>() as u64,
            cycle_ps,
            energy_pj: [5.0, 4.0, 3.0, 2.0, 1.0, 0.5],
            row_hit_rate: 0.875,
            mpki: 12.5,
            bytes_moved: 1 << 20,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let r = record("texture_tiling", "cpu-only", [10.0, 20.5, 0.25, 30.0, 40.0, 0.0]);
        let cycle: f64 = r.cycle_shares().iter().sum();
        let energy: f64 = r.energy_shares().iter().sum();
        assert!((cycle - 1.0).abs() < 1e-9);
        assert!((energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_record_has_zero_shares() {
        let mut r = record("k", "m", [0.0; 6]);
        r.energy_pj = [0.0; 6];
        assert_eq!(r.cycle_shares(), [0.0; 6]);
        assert_eq!(r.energy_shares(), [0.0; 6]);
    }

    #[test]
    fn gap_attribution_localizes_the_saved_time() {
        // CPU spends 70 in dram-queue + 20 in dram-service; PIM converts
        // most of that to 10 of pim-link. The gap should be dominated by
        // dram-queue.
        let cpu = record("k", "cpu-only", [10.0, 10.0, 0.0, 70.0, 20.0, 0.0]);
        let acc = record("k", "pim-acc", [10.0, 2.0, 3.0, 0.0, 15.0, 10.0]);
        let gap = attribute_gap(&cpu, &acc);
        assert!((gap.total_delta_ps - 70.0).abs() < 1e-9);
        assert!((gap.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let (label, share) = gap.dominant();
        assert_eq!(label, "dram-queue");
        assert!((share - 1.0).abs() < 1e-9);
        // pim-link grew, so its share of the gap is negative.
        assert!(gap.shares[5] < 0.0);
        let json = gap.to_json_value().render();
        assert!(json.contains("\"dominant_component\":\"dram-queue\""));
    }

    #[test]
    fn identical_records_have_no_gap() {
        let r = record("k", "m", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let gap = attribute_gap(&r, &r);
        assert_eq!(gap.total_delta_ps, 0.0);
        assert_eq!(gap.shares, [0.0; 6]);
    }

    #[test]
    fn json_and_table_expose_every_component() {
        let r = record("texture_tiling", "pim-acc", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let json = r.to_json_value().render();
        for label in COMPONENT_LABELS {
            assert!(json.contains(&format!("\"{label}\"")), "missing {label}");
        }
        let parsed = pim_trace::JsonValue::parse(&json).unwrap();
        let shares = parsed.get("cycle_shares").unwrap();
        let total: f64 =
            COMPONENT_LABELS.iter().map(|l| shares.get(l).unwrap().as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let table = render_explain_table(&[r]);
        assert!(table.contains("texture_tiling"));
        assert!(table.contains("pim-acc"));
        for label in COMPONENT_LABELS {
            assert!(table.contains(label));
        }
    }
}
