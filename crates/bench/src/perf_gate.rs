//! The wall-clock perf-regression gate behind `repro --perf-gate`.
//!
//! Every scorecard run (`repro --json` or `--explain`) appends one
//! compact line to `BENCH_history.jsonl` (total wall time plus
//! per-experiment wall times). The gate takes the median over the last
//! few runs — wall time is noisy; a single slow run must not fail CI —
//! and compares each experiment against the committed
//! `BENCH_baseline.json`, after correcting for overall machine speed:
//! every per-experiment budget is scaled by `median_total /
//! baseline_total`, so a uniformly slower CI runner shifts no verdicts
//! while a *relative* regression in one experiment stands out regardless
//! of host.
//!
//! Verdicts: an experiment whose speed-corrected ratio exceeds the hard
//! threshold (default +25%) fails the gate; past the soft threshold
//! (default +10%) it only warns (`::warning::` so GitHub annotates the
//! run). Experiments under the noise floor (default 50 ms in the
//! baseline) are skipped — their timings are dominated by jitter.

use std::fmt::Write as _;
use std::path::Path;

use pim_trace::JsonValue;

/// Gate thresholds.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Median window over the newest history lines.
    pub window: usize,
    /// Soft threshold: warn above this speed-corrected ratio.
    pub warn_ratio: f64,
    /// Hard threshold: fail above this speed-corrected ratio.
    pub fail_ratio: f64,
    /// Baseline wall times under this many ms are jitter: skip them.
    pub noise_floor_ms: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { window: 3, warn_ratio: 1.10, fail_ratio: 1.25, noise_floor_ms: 50 }
    }
}

/// Per-experiment verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within budget.
    Ok,
    /// Past the soft threshold: annotate, don't fail.
    Warn,
    /// Past the hard threshold: fail the gate.
    Fail,
    /// No comparable data (below noise floor, or missing on one side).
    Skipped,
}

/// One experiment's comparison.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Experiment id.
    pub id: String,
    /// Committed budget, ms.
    pub baseline_ms: u64,
    /// Median of the history window, ms.
    pub median_ms: u64,
    /// `median / (baseline * machine_scale)`; 0 when skipped.
    pub ratio: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Why a skipped experiment was skipped.
    pub note: String,
}

/// The whole gate outcome.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// History lines actually used.
    pub runs_used: usize,
    /// Baseline total wall time, ms.
    pub baseline_total_ms: u64,
    /// Median total wall time over the window, ms.
    pub median_total_ms: u64,
    /// `median_total / baseline_total` — the machine-speed correction.
    pub machine_scale: f64,
    /// Per-experiment findings, baseline order.
    pub findings: Vec<Finding>,
}

impl GateReport {
    /// True when no finding failed.
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.verdict == Verdict::Fail)
    }

    /// Render the human/CI report. Warn lines use the `::warning::`
    /// GitHub workflow-command syntax so CI annotates without failing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate: median of {} run(s), total {} ms vs baseline {} ms (machine scale {:.2})",
            self.runs_used, self.median_total_ms, self.baseline_total_ms, self.machine_scale
        );
        for f in &self.findings {
            match f.verdict {
                Verdict::Ok => {
                    let _ = writeln!(
                        out,
                        "  ok   {:<24} {:>6} ms (budget {} ms, ratio {:.2})",
                        f.id, f.median_ms, f.baseline_ms, f.ratio
                    );
                }
                Verdict::Warn => {
                    let _ = writeln!(
                        out,
                        "::warning::perf gate: {} at {} ms is {:.0}% over its {} ms budget (noise-tolerated)",
                        f.id,
                        f.median_ms,
                        (f.ratio - 1.0) * 100.0,
                        f.baseline_ms
                    );
                }
                Verdict::Fail => {
                    let _ = writeln!(
                        out,
                        "  FAIL {:<24} {:>6} ms is {:.0}% over its {} ms budget",
                        f.id,
                        f.median_ms,
                        (f.ratio - 1.0) * 100.0,
                        f.baseline_ms
                    );
                }
                Verdict::Skipped => {
                    let _ = writeln!(out, "  skip {:<24} {}", f.id, f.note);
                }
            }
        }
        let _ = writeln!(out, "perf gate: {}", if self.passed() { "pass" } else { "FAIL" });
        out
    }
}

/// One parsed history/baseline document: total + per-experiment ms.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Total sweep wall time, ms.
    pub total_ms: u64,
    /// Per-experiment `(id, wall_ms)`.
    pub experiments: Vec<(String, u64)>,
}

impl RunTiming {
    /// Parse one history line / baseline document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("bad timing json: {e}"))?;
        let total_ms = doc
            .get("wall_ms")
            .and_then(JsonValue::as_u64)
            .ok_or("missing numeric wall_ms")?;
        let mut experiments = Vec::new();
        if let Some(arr) = doc.get("experiments").and_then(JsonValue::as_array) {
            for e in arr {
                let id = e.get("id").and_then(JsonValue::as_str).ok_or("experiment without id")?;
                let ms = e
                    .get("wall_ms")
                    .and_then(JsonValue::as_u64)
                    .ok_or("experiment without wall_ms")?;
                experiments.push((id.to_string(), ms));
            }
        }
        Ok(Self { total_ms, experiments })
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    if xs.is_empty() {
        0
    } else {
        xs[xs.len() / 2]
    }
}

/// Compare the newest history entries against the baseline.
///
/// The history is heterogeneous: `repro --json` appends full scorecard
/// lines while `repro --fleet` appends single-experiment fleet lines.
/// Totals are only comparable between runs that did comparable work, so
/// the machine-speed correction is computed from the newest
/// `config.window` **scale-comparable** lines — those containing at
/// least half of the baseline's experiment ids. Per-experiment samples
/// are drawn from the newest `config.window` lines *containing that
/// experiment*, wherever they sit in the file, so a burst of fleet runs
/// neither skews the kernel budgets nor starves the fleet budget of
/// samples. Homogeneous histories behave exactly as before.
pub fn evaluate(history: &[RunTiming], baseline: &RunTiming, config: &GateConfig) -> GateReport {
    let window = config.window.max(1);
    let need = baseline.experiments.len().div_ceil(2).max(1);
    let comparable: Vec<&RunTiming> = history
        .iter()
        .rev()
        .filter(|r| {
            baseline
                .experiments
                .iter()
                .filter(|(id, _)| r.experiments.iter().any(|(n, _)| n == id))
                .count()
                >= need
        })
        .take(window)
        .collect();
    // Degenerate histories (no comparable line at all) fall back to the
    // raw newest window rather than a dead gate.
    let scale_window: Vec<&RunTiming> = if comparable.is_empty() {
        history.iter().rev().take(window).collect()
    } else {
        comparable
    };
    let median_total_ms = median(scale_window.iter().map(|r| r.total_ms).collect());
    let machine_scale = if baseline.total_ms == 0 {
        1.0
    } else {
        (median_total_ms as f64 / baseline.total_ms as f64).max(0.01)
    };
    let mut findings = Vec::new();
    for (id, baseline_ms) in &baseline.experiments {
        let samples: Vec<u64> = history
            .iter()
            .rev()
            .filter_map(|r| {
                r.experiments.iter().find(|(n, _)| n == id).map(|&(_, ms)| ms)
            })
            .take(window)
            .collect();
        let mut f = Finding {
            id: id.clone(),
            baseline_ms: *baseline_ms,
            median_ms: median(samples.clone()),
            ratio: 0.0,
            verdict: Verdict::Skipped,
            note: String::new(),
        };
        if *baseline_ms < config.noise_floor_ms {
            f.note = format!("baseline {baseline_ms} ms is under the {} ms noise floor", config.noise_floor_ms);
        } else if samples.is_empty() {
            f.note = "no samples in the history window".to_string();
        } else {
            f.ratio = f.median_ms as f64 / (*baseline_ms as f64 * machine_scale);
            f.verdict = if f.ratio > config.fail_ratio {
                Verdict::Fail
            } else if f.ratio > config.warn_ratio {
                Verdict::Warn
            } else {
                Verdict::Ok
            };
        }
        findings.push(f);
    }
    GateReport {
        runs_used: scale_window.len(),
        baseline_total_ms: baseline.total_ms,
        median_total_ms,
        machine_scale,
        findings,
    }
}

/// Load history + baseline from disk and evaluate. Errors are strings
/// ready for `eprintln!`.
pub fn run_gate(
    history_path: &Path,
    baseline_path: &Path,
    config: &GateConfig,
) -> Result<GateReport, String> {
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline = RunTiming::parse(&baseline_text)
        .map_err(|e| format!("baseline {}: {e}", baseline_path.display()))?;
    let history_text = std::fs::read_to_string(history_path)
        .map_err(|e| format!("cannot read history {}: {e} (run `repro --json` first)", history_path.display()))?;
    let mut history = Vec::new();
    for (lineno, line) in history_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // A torn final line (crashed run) degrades to a short window, not
        // a dead gate.
        match RunTiming::parse(line) {
            Ok(r) => history.push(r),
            Err(e) => eprintln!(
                "perf gate: skipping {} line {}: {e}",
                history_path.display(),
                lineno + 1
            ),
        }
    }
    if history.is_empty() {
        return Err(format!("history {} has no usable runs", history_path.display()));
    }
    Ok(evaluate(&history, &baseline, config))
}

/// A run's `wall_ms`/`experiments` block: rendered compact, it is the
/// `BENCH_history.jsonl` line; a scorecard run also archives it in
/// `BENCH_repro.json`.
pub fn timing_json(total_ms: u64, experiments: &[(String, u64, u64)]) -> JsonValue {
    let mut arr = JsonValue::array();
    for (id, ms, attempts) in experiments {
        arr = arr.push(
            JsonValue::object()
                .set("id", id.as_str())
                .set("wall_ms", *ms)
                .set("attempts", *attempts),
        );
    }
    JsonValue::object().set("wall_ms", total_ms).set("experiments", arr)
}

/// Append a [`timing_json`] block to the history file as one compact line.
pub fn append_history(path: &Path, timing: &JsonValue) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", timing.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(total: u64, exps: &[(&str, u64)]) -> RunTiming {
        RunTiming {
            total_ms: total,
            experiments: exps.iter().map(|&(n, ms)| (n.to_string(), ms)).collect(),
        }
    }

    #[test]
    fn history_line_round_trips() {
        let line =
            timing_json(120, &[("a".to_string(), 100, 1), ("b".to_string(), 20, 2)]).render();
        let parsed = RunTiming::parse(&line).unwrap();
        assert_eq!(parsed.total_ms, 120);
        assert_eq!(parsed.experiments, vec![("a".to_string(), 100), ("b".to_string(), 20)]);
    }

    #[test]
    fn within_budget_passes() {
        let baseline = run(1000, &[("a", 600), ("b", 400)]);
        let history = vec![run(1020, &[("a", 610), ("b", 410)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert!(report.passed());
        assert!(report.findings.iter().all(|f| f.verdict == Verdict::Ok));
    }

    #[test]
    fn per_experiment_regression_fails_even_on_a_fast_machine() {
        // Machine is 2x faster overall, but `a` regressed 2x relative to
        // its share: must fail despite its absolute time matching baseline.
        let baseline = run(1000, &[("a", 500), ("b", 500)]);
        let history = vec![run(750, &[("a", 500), ("b", 250)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        let a = report.findings.iter().find(|f| f.id == "a").unwrap();
        assert_eq!(a.verdict, Verdict::Fail, "{report:?}");
        assert!(!report.passed());
    }

    #[test]
    fn uniform_slowdown_is_machine_speed_not_a_regression() {
        let baseline = run(1000, &[("a", 600), ("b", 400)]);
        let history = vec![run(3000, &[("a", 1800), ("b", 1200)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn median_of_three_shrugs_off_one_noisy_run() {
        let baseline = run(1000, &[("a", 600), ("b", 400)]);
        let history = vec![
            run(1000, &[("a", 600), ("b", 400)]),
            run(5000, &[("a", 4400), ("b", 600)]), // one bad run
            run(1010, &[("a", 605), ("b", 405)]),
        ];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.median_total_ms, 1010);
    }

    #[test]
    fn noise_floor_and_missing_data_skip_instead_of_failing() {
        let baseline = run(1000, &[("tiny", 5), ("gone", 500), ("a", 495)]);
        let history = vec![run(1000, &[("a", 500)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        let tiny = report.findings.iter().find(|f| f.id == "tiny").unwrap();
        assert_eq!(tiny.verdict, Verdict::Skipped);
        assert!(tiny.note.contains("noise floor"));
        let gone = report.findings.iter().find(|f| f.id == "gone").unwrap();
        assert_eq!(gone.verdict, Verdict::Skipped);
    }

    #[test]
    fn soft_threshold_warns_without_failing() {
        let baseline = run(1000, &[("a", 500), ("b", 500)]);
        // `a` 15% over after correction: warn, still pass. Keep the total
        // consistent so the machine-scale correction stays near 1.
        let history = vec![run(1000, &[("a", 575), ("b", 425)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        let a = report.findings.iter().find(|f| f.id == "a").unwrap();
        assert_eq!(a.verdict, Verdict::Warn, "{report:?}");
        assert!(report.passed());
        assert!(report.render().contains("::warning::"), "{}", report.render());
    }

    #[test]
    fn fleet_only_lines_do_not_skew_the_machine_scale() {
        // Two fleet runs land after the last scorecard run. The old gate
        // took the raw newest window — median total 100 ms → machine
        // scale 0.1 → every kernel "regresses" 10x. The hardened gate
        // computes the scale only from scale-comparable lines and samples
        // each experiment from the newest lines containing it.
        let baseline = run(1000, &[("a", 600), ("b", 400)]);
        let history = vec![
            run(1010, &[("a", 605), ("b", 405)]),
            run(100, &[("fleet-sweep", 100)]),
            run(110, &[("fleet-sweep", 110)]),
        ];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.median_total_ms, 1010, "scale from the scorecard line only");
        let a = report.findings.iter().find(|f| f.id == "a").unwrap();
        assert_eq!(a.verdict, Verdict::Ok, "{}", report.render());
        assert_eq!(a.median_ms, 605, "sampled from the line that contains it");
    }

    #[test]
    fn fleet_budget_is_sampled_from_fleet_lines() {
        let baseline = run(1000, &[("a", 500), ("b", 350), ("fleet-sweep", 150)]);
        let history = vec![
            run(1000, &[("a", 500), ("b", 350)]),
            run(160, &[("fleet-sweep", 155)]),
            run(1010, &[("a", 505), ("b", 355)]),
        ];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        let fleet = report.findings.iter().find(|f| f.id == "fleet-sweep").unwrap();
        assert_eq!(fleet.verdict, Verdict::Ok, "{}", report.render());
        assert_eq!(fleet.median_ms, 155);
        // And a genuine fleet regression still fails.
        let bad = vec![
            run(1000, &[("a", 500), ("b", 350)]),
            run(400, &[("fleet-sweep", 400)]),
        ];
        let report = evaluate(&bad, &baseline, &GateConfig::default());
        let fleet = report.findings.iter().find(|f| f.id == "fleet-sweep").unwrap();
        assert_eq!(fleet.verdict, Verdict::Fail, "{}", report.render());
    }

    #[test]
    fn history_with_no_comparable_lines_falls_back_to_raw_window() {
        let baseline = run(1000, &[("a", 600), ("b", 400)]);
        let history = vec![run(1000, &[("other", 1000)])];
        let report = evaluate(&history, &baseline, &GateConfig::default());
        assert_eq!(report.runs_used, 1);
        assert!(report.passed(), "missing data skips, never fails: {}", report.render());
    }

    #[test]
    fn gate_reads_files_and_tolerates_torn_lines() {
        let dir = std::env::temp_dir();
        let hist = dir.join(format!("pim-gate-hist-{}.jsonl", std::process::id()));
        let base = dir.join(format!("pim-gate-base-{}.json", std::process::id()));
        std::fs::write(
            &base,
            "{\"wall_ms\":1000,\"experiments\":[{\"id\":\"a\",\"wall_ms\":600},{\"id\":\"b\",\"wall_ms\":400}]}",
        )
        .unwrap();
        let good = "{\"wall_ms\":1010,\"experiments\":[{\"id\":\"a\",\"wall_ms\":606},{\"id\":\"b\",\"wall_ms\":404}]}";
        std::fs::write(&hist, format!("{good}\n{{\"wall_ms\": 12, \"exp")).unwrap();
        let report = run_gate(&hist, &base, &GateConfig::default()).unwrap();
        assert_eq!(report.runs_used, 1, "torn line skipped");
        assert!(report.passed());
        let _ = std::fs::remove_file(&hist);
        let _ = std::fs::remove_file(&base);
    }
}
