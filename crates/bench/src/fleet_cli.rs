//! `repro --fleet`: the crash-safe population-sweep front end.
//!
//! Runs [`pim_fleet::run_fleet`] over a deterministically sampled device
//! population, prints the human summary (energy-reduction distribution,
//! the paper's ≥40% headline share, regression attribution, quarantined
//! shards with replay commands), writes the deterministic report to
//! `BENCH_fleet.json`, and appends a `fleet-sweep` line to
//! `BENCH_history.jsonl` so `repro --perf-gate` budgets fleet wall time
//! alongside the kernel experiments.
//!
//! The report document is a pure function of the sweep key: wall times
//! and runtime counters (resumed shards, checkpoint writes) go to stderr
//! only, so a killed-and-resumed sweep writes a byte-identical
//! `BENCH_fleet.json` to an uninterrupted one.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use pim_fleet::{fleet_report, run_fleet, FleetConfig, FleetError, FleetOutcome};
use pim_trace::{JsonValue, Tracer};

/// Human rendering of the deterministic report (stdout).
pub fn fleet_text(report: &JsonValue) -> String {
    let mut out = String::new();
    let get = |o: &JsonValue, k: &str| o.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let geti = |o: &JsonValue, k: &str| {
        o.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    let pop = report.get("population").cloned().unwrap_or_else(JsonValue::object);
    let _ = writeln!(
        out,
        "fleet sweep: {} devices (seed {}, offset {}, {} shards of {})",
        get(&pop, "devices"),
        get(&pop, "seed"),
        get(&pop, "offset"),
        get(&pop, "shards"),
        get(&pop, "shard_size"),
    );
    let done = get(report, "devices_done");
    let _ = writeln!(
        out,
        "  aggregated {} devices across {} completed shards ({} quarantined)",
        done,
        get(&pop, "completed_shards"),
        get(&pop, "quarantined_shards"),
    );
    if let Some(bp) = report.get("energy_reduction_bp") {
        let pct = |k: &str| geti(bp, k) / 100.0;
        let _ = writeln!(
            out,
            "  energy reduction: mean {:.1}%, p10 {:.1}%, p50 {:.1}%, p90 {:.1}%, p99 {:.1}%",
            pct("mean"),
            pct("p10"),
            pct("p50"),
            pct("p90"),
            pct("p99"),
        );
    }
    let ge40 = get(report, "devices_ge_40pct_reduction");
    let regressed = get(report, "devices_regressed");
    if done > 0 {
        let _ = writeln!(
            out,
            "  >=40% reduction: {} devices ({:.1}%); regressed under PIM: {} ({:.2}%)",
            ge40,
            ge40 as f64 * 100.0 / done as f64,
            regressed,
            regressed as f64 * 100.0 / done as f64,
        );
    }
    if let Some(attr) = report.get("regression_attribution").and_then(JsonValue::as_array) {
        if !attr.is_empty() {
            let _ = writeln!(out, "  regression attribution (count-min, over-counts only):");
            for t in attr.iter().take(6) {
                let _ = writeln!(
                    out,
                    "    {:<16} ~{} regressed devices",
                    t.get("token").and_then(JsonValue::as_str).unwrap_or("?"),
                    get(t, "regressions_est"),
                );
            }
        }
    }
    if let Some(q) = report.get("quarantined").and_then(JsonValue::as_array) {
        for rec in q {
            let _ = writeln!(
                out,
                "  quarantined shard {} (devices {}..+{}, seed {}, {}): replay with `{}`",
                get(rec, "shard"),
                get(rec, "start"),
                get(rec, "devices"),
                get(rec, "seed"),
                rec.get("error_label").and_then(JsonValue::as_str).unwrap_or("?"),
                rec.get("replay").and_then(JsonValue::as_str).unwrap_or("?"),
            );
        }
    }
    out
}

/// Run the sweep, write the report to `report_path`, append a
/// `fleet-sweep` line to `history_path` (if any), and return the outcome
/// for exit-code logic. Errors are strings ready for `eprintln!`.
pub fn run_fleet_cli(
    cfg: &FleetConfig,
    report_path: &Path,
    history_path: Option<&Path>,
) -> Result<FleetOutcome, String> {
    let t0 = Instant::now();
    let tracer = Tracer::disabled();
    let outcome = run_fleet(cfg, &tracer).map_err(|e| match e {
        FleetError::Mismatch(what) => format!(
            "{what}\n(the checkpoint belongs to a different sweep; \
             delete it or match its parameters)"
        ),
        other => other.to_string(),
    })?;
    let wall_ms = t0.elapsed().as_millis() as u64;

    let report = fleet_report(&outcome.state);
    print!("{}", fleet_text(&report));
    let mut doc = report.render_pretty();
    doc.push('\n');
    std::fs::write(report_path, doc)
        .map_err(|e| format!("failed to write {}: {e}", report_path.display()))?;

    // Runtime counters are stderr-only: the report file stays a pure
    // function of the sweep key so kill+resume is byte-identical.
    eprintln!(
        "wrote {} ({wall_ms} ms; {} shards this run, {} resumed, {} checkpoints written, {} dropped{})",
        report_path.display(),
        outcome.processed_shards,
        outcome.resumed_shards,
        outcome.checkpoint_writes,
        outcome.checkpoint_dropped,
        if outcome.recovered_from_corrupt_checkpoint { ", recovered from corrupt checkpoint" } else { "" },
    );

    if let Some(history) = history_path {
        let timing =
            crate::perf_gate::timing_json(wall_ms, &[("fleet-sweep".to_string(), wall_ms, 1)]);
        if let Err(e) = crate::perf_gate::append_history(history, &timing) {
            eprintln!("failed to append {}: {e}", history.display());
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim-fleet-cli-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn cli_run_writes_deterministic_report_and_history_line() {
        let report_a = temp("rep-a.json");
        let report_b = temp("rep-b.json");
        let hist = temp("hist.jsonl");
        let _ = std::fs::remove_file(&hist);
        let cfg =
            FleetConfig { devices: 1_000, shard_size: 100, workers: 2, ..FleetConfig::default() };
        run_fleet_cli(&cfg, &report_a, Some(&hist)).unwrap();
        run_fleet_cli(&cfg, &report_b, Some(&hist)).unwrap();
        assert_eq!(
            std::fs::read(&report_a).unwrap(),
            std::fs::read(&report_b).unwrap(),
            "same sweep key must write byte-identical reports"
        );
        let hist_text = std::fs::read_to_string(&hist).unwrap();
        assert_eq!(hist_text.lines().count(), 2);
        for line in hist_text.lines() {
            let parsed = crate::perf_gate::RunTiming::parse(line).unwrap();
            assert_eq!(parsed.experiments.len(), 1);
            assert_eq!(parsed.experiments[0].0, "fleet-sweep");
        }
        for p in [&report_a, &report_b, &hist] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn fleet_text_mentions_quarantine_replay() {
        let report_path = temp("quarantine.json");
        let cfg = FleetConfig {
            devices: 1_000,
            shard_size: 100,
            workers: 2,
            fail_shard_every: Some(5),
            ..FleetConfig::default()
        };
        let outcome = run_fleet_cli(&cfg, &report_path, None).unwrap();
        assert_eq!(outcome.state.quarantined.len(), 2);
        let text = fleet_text(&fleet_report(&outcome.state));
        assert!(text.contains("quarantined shard"), "{text}");
        assert!(text.contains("--fleet-offset"), "{text}");
        let _ = std::fs::remove_file(&report_path);
    }
}
