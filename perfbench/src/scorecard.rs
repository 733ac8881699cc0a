//! `scorecard`: one pass is `repro --json --jobs 1`, the headline
//! reproduction command — 13 harness jobs and 27 kernel×mode simulations
//! on the ranged engine, no journal, no tracer.

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pim_bench::jobs::{kernel_catalog, merge_metric_lines, metrics_jobs};
use pim_harness::{Harness, HarnessPolicy, Job};
use pim_trace::JsonValue;

use crate::metrics::{Outcome, Sample};
use crate::spans::Spans;
use crate::traced_faulted::{rel_err, sim_loop};
use crate::{proc, stats, Ctx};

const PASS_LIMIT: Duration = Duration::from_secs(60);
/// `repro --list` start-ups timed for `setup_s` before the passes, and
/// after each pass.
const SETUP_PROBES: usize = 5;
const SETUP_PROBES_PER_PASS: usize = 2;

/// The `"scorecard": [...]` line of a `repro --json` document.
pub fn scorecard_line(doc: &str) -> Option<&str> {
    doc.lines()
        .find(|l| l.trim_start().starts_with("\"scorecard\":"))
}

/// Run and verify one `repro --json --jobs 1` in a fresh directory.
fn pass(ctx: &Ctx, want: &str) -> Result<Sample, String> {
    let dir = ctx
        .fresh_dir("scorecard")
        .map_err(|e| format!("scratch: {e}"))?;
    let stdout = std::fs::File::create(dir.join("stdout.json")).map_err(|e| e.to_string())?;
    let stderr = std::fs::File::create(dir.join("stderr.txt")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&ctx.repro);
    cmd.args(["--json", "--jobs", "1"])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr);
    let exit = proc::run(&mut cmd, PASS_LIMIT).map_err(|e| format!("spawn repro: {e}"))?;
    let result = verify(&dir, want, exit.ok()).map(|(jobs, rel_err)| Sample {
        wall_s: exit.wall.as_secs_f64(),
        rss_mb: exit.rss_mb(),
        jobs,
        rel_err,
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn verify(
    dir: &std::path::Path,
    want: &str,
    exit: Result<(), String>,
) -> Result<(f64, f64), String> {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    exit.map_err(|e| format!("repro --json: {e}: {}", read("stderr.txt").trim_end()))?;
    let stdout = read("stdout.json");
    if scorecard_line(&stdout) != Some(want) {
        return Err("repro --json: scorecard differs from the committed BENCH_repro.json".into());
    }
    // The pass's own BENCH_repro.json landed in its scratch dir, not the
    // checkout, and carries the same scorecard.
    if scorecard_line(&read("BENCH_repro.json")) != Some(want) {
        return Err("repro --json: its BENCH_repro.json scorecard differs".into());
    }
    let doc = JsonValue::parse(&stdout).map_err(|e| format!("repro --json stdout: {e}"))?;
    let harness = doc.get("harness").ok_or("repro --json: no harness block")?;
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    let summary = harness.get("summary");
    let total = num(summary.and_then(|s| s.get("total")));
    if num(harness.get("resumed")) != 0 {
        return Err("repro --json: resumed jobs in a fresh sweep".into());
    }
    if num(summary.and_then(|s| s.get("succeeded"))) != total || total == u64::MAX {
        return Err(format!(
            "repro --json: harness summary {}",
            summary.map_or(String::new(), |s| s.render())
        ));
    }
    let rows: Vec<(f64, f64)> = doc
        .get("scorecard")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| Some((r.get("paper")?.as_f64()?, r.get("measured")?.as_f64()?)))
        .collect();
    Ok((total as f64, rel_err(&rows)))
}

/// Time `n` `repro --list` start-ups — what any `repro` invocation pays
/// before it does work — into `walls`.
fn setup_probes(ctx: &Ctx, n: usize, walls: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let mut cmd = Command::new(&ctx.repro);
        cmd.arg("--list")
            .current_dir(&ctx.scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        let exit = proc::run(&mut cmd, PASS_LIMIT).map_err(|e| format!("spawn repro: {e}"))?;
        exit.ok().map_err(|e| format!("repro --list: {e}"))?;
        walls.push(exit.wall.as_secs_f64());
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let committed = ctx.committed("BENCH_repro.json")?;
    let want = scorecard_line(&committed)
        .ok_or("committed BENCH_repro.json has no scorecard line")?
        .to_string();
    let mut o = Outcome::default();
    if ctx.trace {
        return traced(ctx, &want, o);
    }
    let mut setup = Vec::new();
    o.op(setup_probes(ctx, SETUP_PROBES, &mut setup));
    // The first pass pages the binary in; it is checked but not timed.
    let warm = pass(ctx, &want);
    o.op(warm.as_ref().map(|_| ()).map_err(Clone::clone));
    let mut passes: Vec<Sample> = Vec::new();
    let (mut last, mut failed) = (warm.as_ref().map_or(0.0, |p| p.wall_s), 0);
    while ctx.more(passes.len(), failed, 3, last) {
        match pass(ctx, &want) {
            Ok(p) => {
                last = p.wall_s;
                passes.push(p);
                o.op(setup_probes(ctx, SETUP_PROBES_PER_PASS, &mut setup));
            }
            Err(e) => {
                failed += 1;
                o.op(Err(e));
            }
        }
    }
    o.set_batch(&setup, &passes);
    Ok(o)
}

/// Wrap each job's public `run` in a span whose parent is `parent`.
fn wrapped(jobs: Vec<Job>, spans: &Spans, parent: u64) -> Vec<Job> {
    jobs.into_iter()
        .map(|job| {
            let (inner, spans, name) = (
                job.run.clone(),
                spans.clone(),
                format!("Job::run {}", job.id),
            );
            Job {
                run: Arc::new(move |ctx| spans.time(&name, Some(parent), |_| inner(ctx))),
                ..job
            }
        })
        .collect()
}

/// The harness sweep `repro --json` runs, in-process; returns the
/// scorecard line its results merge into.
fn harness_sweep(spans: Option<&Spans>) -> Result<String, String> {
    let policy = HarnessPolicy {
        workers: 1,
        ..HarnessPolicy::default()
    };
    let run = |jobs| {
        Harness::new(policy.clone())
            .run(jobs)
            .map_err(|e| e.to_string())
    };
    let report = match spans {
        Some(s) => s.time("Harness::run", None, |id| {
            run(wrapped(metrics_jobs(false), s, id))
        }),
        None => run(metrics_jobs(false)),
    }?;
    if !report.all_ok() {
        return Err(format!("harness sweep: {}", report.summary().one_line()));
    }
    let order: Vec<&str> = kernel_catalog(false).into_iter().map(|(n, ..)| n).collect();
    let metrics = merge_metric_lines(
        &order,
        report.results.iter().filter_map(|r| r.output.as_deref()),
    );
    let doc = pim_bench::scorecard::to_json(&pim_bench::scorecard::entries_from_metrics(&metrics));
    Ok(scorecard_line(&doc).unwrap_or_default().to_string())
}

/// The traced run: one untraced CLI pass; the same harness sweep
/// in-process, after a warm-up, with and without spans around
/// `Harness::run` and each `Job::run` (alternating which goes first); and
/// the plain kernel × mode loop with spans around `OffloadEngine::try_run`.
fn traced(ctx: &Ctx, want: &str, mut o: Outcome) -> Result<Outcome, String> {
    let check = |line: Result<String, String>| {
        line.and_then(|l| {
            if l == want {
                Ok(())
            } else {
                Err("in-process scorecard differs".into())
            }
        })
    };
    o.op(pass(ctx, want).map(|_| ()));
    let spans = Spans::new();
    o.op(check(harness_sweep(None)));
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for round in 0..2 {
        for with_spans in [round == 0, round != 0] {
            let t = Instant::now();
            let line = harness_sweep(with_spans.then_some(&spans));
            let wall = t.elapsed().as_secs_f64();
            if with_spans {
                spanned.push(wall);
            } else {
                plain.push(wall);
            }
            o.op(check(line));
        }
    }
    let self_ms = spans.self_ms("Harness::run");
    o.set("harness.overhead_ms", stats::median(&self_ms));
    o.set(
        "bench.span_overhead_pct",
        (stats::median(&spanned) / stats::median(&plain) - 1.0) * 100.0,
    );

    let r = sim_loop(false, false, ctx.seed, Some(&spans));
    let mut entries_ok = r.errors.first().cloned().map_or(Ok(()), Err);
    if entries_ok.is_ok() {
        let doc =
            pim_bench::scorecard::to_json(&pim_bench::scorecard::entries_from_metrics(&r.metrics));
        entries_ok = check(Ok(scorecard_line(&doc).unwrap_or_default().to_string()));
    }
    o.op(entries_ok);
    for (name, v) in &r.totals.values {
        o.set(name, *v);
    }
    let path = ctx
        .out_dir
        .join(format!("spans-scorecard-seed{}.jsonl", ctx.seed));
    let _ = std::fs::remove_file(&path);
    spans
        .write(&path)
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(o)
}
