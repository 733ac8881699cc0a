//! Metric names, units and the result line.
//!
//! The two lists below are the contract with `BENCHMARK.json` (a test
//! keeps them identical). An end-to-end run must measure every
//! [`END_TO_END`] metric; a traced run reports every [`PER_LAYER`] metric,
//! with 0 for a layer the workload does not exercise.

use std::collections::BTreeMap;

use crate::stats;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("paper_rel_err", "1"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("chrome.tiling_ms", "ms"),
    ("chrome.blitting_ms", "ms"),
    ("chrome.compression_ms", "ms"),
    ("chrome.decompression_ms", "ms"),
    ("tfmobile.packing_ms", "ms"),
    ("tfmobile.quantization_ms", "ms"),
    ("vp9.interpolation_ms", "ms"),
    ("vp9.deblocking_ms", "ms"),
    ("vp9.motion-estimation_ms", "ms"),
    ("core.cpu-only_ms", "ms"),
    ("core.pim-core_ms", "ms"),
    ("core.pim-acc_ms", "ms"),
    ("memsim.host_ns_per_access", "ns"),
    ("cpusim.instructions", "count"),
    ("memsim.l1_accesses", "count"),
    ("memsim.llc_accesses", "count"),
    ("memsim.scratch_accesses", "count"),
    ("memsim.memctrl_requests", "count"),
    ("memsim.row_hits", "count"),
    ("memsim.row_misses", "count"),
    ("memsim.offchip_bytes", "B"),
    ("memsim.internal_bytes", "B"),
    ("core.sim_runtime_ps", "ps"),
    ("energy.total_pj", "pJ"),
    ("harness.overhead_ms", "ms"),
    ("core.retries", "count"),
    ("core.fallbacks", "count"),
    ("core.abandoned_ps", "ps"),
    ("core.attempt_yield", "1"),
    ("faults.bit_flips", "count"),
    ("faults.corrected", "count"),
    ("faults.uncorrectable", "count"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.export_ms", "ms"),
    ("trace.json_bytes", "B"),
    ("core.slowdown_vs_plain", "x"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.steals", "count"),
    ("serve.retries", "count"),
    ("serve.overloaded", "count"),
    ("serve.journal_dropped", "count"),
    ("serve.journal_bytes_per_job", "B"),
    ("serve.rss_kb_per_job", "KB"),
    ("fleet.shards", "count"),
    ("fleet.checkpoints_written", "count"),
    ("fleet.evaluate_shard_ms", "ms"),
    ("fleet.summary_codec_us", "us"),
    ("fleet.checkpoint_ms", "ms"),
    ("bench.span_overhead_pct", "%"),
];

/// One timed pass of a batch workload (scorecard, traced-faulted, fleet).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    /// Jobs the pass completed (harness jobs, kernel×mode runs, shards).
    pub jobs: f64,
    pub rss_mb: f64,
    pub rel_err: f64,
}

/// What one run measured and whether every pass checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The message of every failed operation, in order.
    pub errors: Vec<String>,
    /// Run-level check failures not tied to one counted operation.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric. Panics on a name outside both lists: a typo must
    /// not silently become a missing metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The end-to-end metrics of a batch workload: medians over its timed
    /// passes. A job's latency inside a sweep is only its queue position;
    /// the request a user waits on is the pass. Both latency fields are
    /// therefore the median pass wall in ms — aliases of `wall_s`, not
    /// percentiles: a traced-faulted or scorecard run holds too few passes
    /// for a p95 with ten samples beyond it, and on fleet, whose run has
    /// hundreds, the p95 of the pass walls follows the host's load far
    /// more than the median does (`perfbench/README.md` has the figures).
    pub fn set_batch(&mut self, setup_s: &[f64], passes: &[Sample]) {
        let col = |f: fn(&Sample) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
        let walls = col(|p| p.wall_s);
        let wall_s = stats::median(&walls);
        self.set("setup_s", stats::median(setup_s));
        self.set("wall_s", wall_s);
        self.set("jobs_per_s", stats::median(&col(|p| p.jobs / p.wall_s)));
        self.set("latency_p50_ms", wall_s * 1e3);
        self.set("latency_p95_ms", wall_s * 1e3);
        self.set("peak_rss_mb", stats::median(&col(|p| p.rss_mb)));
        self.set("paper_rel_err", stats::median(&col(|p| p.rel_err)));
        eprintln!(
            "perfbench: {} timed passes, wall {walls:?} s, {} set-up samples",
            passes.len(),
            setup_s.len()
        );
    }

    /// Count one operation and whether it failed; failures are logged.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
            self.errors.push(e);
        }
    }

    /// A failure that is not one counted operation of its own.
    pub fn fail(&mut self, problem: String) {
        eprintln!("perfbench: FAILED: {problem}");
        self.problems.push(problem);
    }

    /// Check the metric set against the mode's list and reject values
    /// JSON cannot carry.
    pub fn finish(mut self, trace: bool) -> Result<Self, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in list {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.fail(format!("metric {name} is not finite ({v})")),
                // A traced run reports 0 for layers its workload leaves idle.
                None if trace => {
                    self.values.insert(name, 0.0);
                }
                None => self.fail(format!("end-to-end metric {name} was not measured")),
            }
        }
        self.values.retain(|k, _| list.iter().any(|(n, _)| n == k));
        for v in self.values.values_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        Ok(self)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line.
    pub fn render(&self) -> String {
        let units = END_TO_END.iter().chain(&PER_LAYER);
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                let unit = units
                    .clone()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| u);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*v)
                )
            })
            .collect();
        // Run-level problems count as failed operations of their own.
        let failed = self.failed + self.problems.len() as u64;
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted + self.problems.len() as u64,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = pim_trace::JsonValue::parse(&text).expect("valid JSON");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(key).and_then(|v| v.as_array()).expect(key);
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(|v| v.as_str()).unwrap(),
                        e.get("unit").and_then(|v| v.as_str()).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let o = o.finish(false).unwrap();
        let line = o.render();
        let doc = pim_trace::JsonValue::parse(&line).unwrap();
        assert!(matches!(
            doc.get("correct"),
            Some(pim_trace::JsonValue::Bool(true))
        ));
        for (name, unit) in END_TO_END {
            let m = doc.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
            assert_eq!(m.get("value").and_then(|u| u.as_f64()), Some(1.5));
        }
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(Err("mismatch".into()));
        assert!(!o.correct());
        assert!(o.render().contains("\"failed\": 1"));
    }
}
