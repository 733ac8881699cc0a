//! The benchmark's own tests, at smoke size: every workload prints every
//! metric with its unit, and a tampered reference or a tampered committed
//! scorecard is reported as a failure. (A leftover serve journal and a
//! leftover fleet checkpoint are unit tests in `src/serve.rs` and
//! `src/fleet.rs`.)
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use pim_trace::JsonValue;

const WORKLOADS: [&str; 4] = ["scorecard", "traced-faulted", "serve", "fleet"];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .unwrap()
}

/// The `repro` binary, built from the repo's own workspace.
fn repro() -> &'static Path {
    static REPRO: OnceLock<PathBuf> = OnceLock::new();
    REPRO.get_or_init(|| {
        let target = repo().join("target");
        let ok = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "pim-bench",
                "--bin",
                "repro",
            ])
            .current_dir(repo())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo");
        assert!(ok.success(), "building repro failed");
        target.join("release/repro")
    })
}

/// Run the benchmark; returns its parsed result line and its stderr.
fn bench(args: &[&str]) -> (JsonValue, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--repro")
        .arg(repro())
        .args(["--seconds", "1", "--smoke"])
        .args(args)
        .current_dir(repo())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "perfbench {args:?} failed: {stderr}");
    let last = stdout.lines().last().unwrap_or_default();
    (
        JsonValue::parse(last).unwrap_or_else(|e| panic!("{last:?}: {e}")),
        stderr,
    )
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn correct(result: &JsonValue) -> bool {
    matches!(result.get("correct"), Some(JsonValue::Bool(true)))
}

fn failed(result: &JsonValue) -> u64 {
    result.get("failed").and_then(JsonValue::as_u64).unwrap()
}

fn assert_metrics(result: &JsonValue, stderr: &str, key: &str, what: &str) {
    assert!(correct(result), "{what}: {}\n{stderr}", result.render());
    assert_eq!(failed(result), 0, "{what}");
    assert!(
        result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1,
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap();
    let want = declared(key);
    assert_eq!(metrics.len(), want.len(), "{what}: {}", result.render());
    for (name, unit) in want {
        let m = result.get("metrics").and_then(|m| m.get(&name));
        let m = m.unwrap_or_else(|| panic!("{what}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{what}/{name}"
        );
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{what}/{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (r, stderr) = bench(&[
            "--workload",
            w,
            "--trace",
            "0",
            "--seed",
            &(11 + i).to_string(),
        ]);
        assert_metrics(&r, &stderr, "end_to_end", w);
        let metrics = r.get("metrics").unwrap();
        for (name, _) in declared("end_to_end") {
            let v = metrics
                .get(&name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64);
            assert!(
                v.unwrap() > 0.0,
                "{w}: end-to-end metric {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (r, stderr) = bench(&[
            "--workload",
            w,
            "--trace",
            "1",
            "--seed",
            &(21 + i).to_string(),
        ]);
        assert_metrics(&r, &stderr, "per_layer", w);
    }
}

#[test]
fn a_tampered_traced_faulted_reference_is_a_failure() {
    let reference = repo().join("perfbench/reference/traced-faulted.txt");
    let text = std::fs::read_to_string(reference).unwrap();
    let tampered = text
        .replacen("smoke 0", "smoke 1", 1)
        .replacen("smoke 8", "smoke 9", 1);
    assert_ne!(tampered, text);
    let dir = repo().join(".bench_tmp/test-tampered-reference");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("traced-faulted.txt");
    std::fs::write(&path, tampered).unwrap();
    let (r, stderr) = bench(&[
        "--workload",
        "traced-faulted",
        "--trace",
        "0",
        "--seed",
        "31",
        "--reference",
        path.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!correct(&r) && failed(&r) > 0, "{}", r.render());
    assert!(stderr.contains("differ from the reference"), "{stderr}");
}

#[test]
fn a_tampered_committed_scorecard_is_a_failure() {
    let dir = repo().join(".bench_tmp/test-tampered-scorecard");
    std::fs::create_dir_all(&dir).unwrap();
    let committed = std::fs::read_to_string(repo().join("BENCH_repro.json")).unwrap();
    let tampered = committed.replacen("\"measured\":0.7", "\"measured\":0.8", 1);
    assert_ne!(tampered, committed);
    std::fs::write(dir.join("BENCH_repro.json"), tampered).unwrap();
    let (r, stderr) = bench(&[
        "--workload",
        "scorecard",
        "--trace",
        "0",
        "--seed",
        "32",
        "--root",
        dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!correct(&r) && failed(&r) > 0, "{}", r.render());
    assert!(stderr.contains("scorecard differs"), "{stderr}");
}
