//! `fleet`: one pass is `repro --fleet --devices 1000000 --seed <seed>
//! --jobs 1 --shard-size 10000` — profile sampling, sketch folding and one
//! harness pool per 4-shard batch; no simulator runs. What crash safety
//! (`--fleet-checkpoint`) adds is measured in the traced run, as
//! `fleet.checkpoint_ms`.
//!
//! Three choices keep a pass steady on a shared 2-vCPU host:
//! - One worker. Every batch waits for its slower worker, so with two
//!   any other load on either vCPU stalls the sweep: beside one busy
//!   process a two-worker pass took 1.7× as long, a one-worker pass the
//!   same as alone.
//! - No checkpoint in the timed pass: each one is an fsync on a disk
//!   other tenants share. With two workers and 25 checkpoints, five 25 s
//!   runs under intermittent load from another process spread by 0.22 of
//!   their median; this pass spread by 0.11 under the same load.
//! - Shards ten times `repro --fleet`'s default: 25 batches, not 250, so
//!   fewer thread hand-offs per pass (at 1,000-device shards five runs
//!   spread by 0.10 quiet and 0.14 loaded, at 10,000 by 0.07 and 0.11).
//!   The sketches merge exactly, so the report differs from the committed
//!   one only in its shard counts.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pim_fleet::{evaluate_shard, ShardSummary, SketchConfig};
use pim_harness::{Harness, HarnessPolicy, Job};
use pim_trace::JsonValue;

use crate::metrics::{Outcome, Sample};
use crate::spans::Spans;
use crate::traced_faulted::rel_err;
use crate::{proc, stats, Ctx, DEFAULT_SEED};

/// A sweep's size: devices and devices per shard.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    devices: u64,
    shard: u64,
}

impl Sweep {
    fn shards(self) -> u64 {
        self.devices.div_ceil(self.shard)
    }
}

const FULL: Sweep = Sweep {
    devices: 1_000_000,
    shard: 10_000,
};
const SMOKE: Sweep = Sweep {
    devices: 10_000,
    shard: 1_000,
};
/// One shard at `repro --fleet`'s default shard size: the set-up probe,
/// and the shard `fleet.evaluate_shard_ms` times.
const ONE_SHARD: Sweep = Sweep {
    devices: 1_000,
    shard: 1_000,
};
/// Shards per batch (and per checkpoint): `max(2 × workers, 4)`.
const SHARDS_PER_BATCH: u64 = 4;
const WORKERS: usize = 1;
const PASS_LIMIT: Duration = Duration::from_secs(60);
/// Set-up probes before the passes; one more follows each pass.
const SETUP_PROBES: usize = 5;
/// The paper's average PIM-Core and PIM-Acc energy reductions.
const PAPER_REDUCTIONS: [f64; 2] = [0.491, 0.554];
/// The committed `BENCH_fleet.json` is a 1M-device sweep at seed 7 in
/// shards of this size.
const COMMITTED_SHARD: u64 = 1_000;

#[derive(Debug)]
struct Pass {
    sample: Sample,
    checkpoints: u64,
    report: String,
}

/// `(shards this run, resumed, checkpoints written, dropped)` from the
/// CLI's summary line.
fn summary(stderr: &str) -> Option<(u64, u64, u64, u64)> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("wrote BENCH_fleet.json"))?;
    let inner = line.split_once("; ")?.1.trim_end_matches(')');
    let mut nums = inner
        .split(", ")
        .map(|part| part.split(' ').next()?.parse::<u64>().ok());
    Some((nums.next()??, nums.next()??, nums.next()??, nums.next()??))
}

/// Run and verify one sweep in a fresh directory, with crash safety when
/// `checkpoint` is given.
fn pass(ctx: &Ctx, sweep: Sweep, checkpoint: Option<&Path>) -> Result<Pass, String> {
    let dir = ctx
        .fresh_dir("fleet")
        .map_err(|e| format!("scratch: {e}"))?;
    let stderr_path = dir.join("stderr.txt");
    let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&ctx.repro);
    cmd.arg("--fleet")
        .args(["--devices", &sweep.devices.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--shard-size", &sweep.shard.to_string()])
        .args(["--jobs", &WORKERS.to_string()])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    if let Some(ckpt) = checkpoint {
        cmd.arg("--fleet-checkpoint").arg(ckpt);
    }
    let exit = proc::run(&mut cmd, PASS_LIMIT).map_err(|e| format!("spawn repro: {e}"))?;
    let log = std::fs::read_to_string(&stderr_path).unwrap_or_default();
    let report = std::fs::read_to_string(dir.join("BENCH_fleet.json")).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    exit.ok()
        .map_err(|e| format!("repro --fleet: {e}: {}", log.trim_end()))?;
    let (shards, resumed, checkpoints, dropped) =
        summary(&log).ok_or_else(|| format!("repro --fleet: no summary line in {log:?}"))?;
    if resumed != 0 {
        return Err(format!(
            "repro --fleet: {resumed} shards resumed from a leftover checkpoint"
        ));
    }
    let want_ckpts = if checkpoint.is_some() {
        sweep.shards().div_ceil(SHARDS_PER_BATCH)
    } else {
        0
    };
    if shards != sweep.shards() || checkpoints != want_ckpts || dropped != 0 {
        return Err(format!(
            "repro --fleet: {shards} shards, {checkpoints} checkpoints, {dropped} dropped \
             (want {}, {want_ckpts}, 0)",
            sweep.shards()
        ));
    }
    let sample = Sample {
        wall_s: exit.wall.as_secs_f64(),
        jobs: shards as f64,
        rss_mb: exit.rss_mb(),
        rel_err: paper_rel_err(&report),
    };
    Ok(Pass {
        sample,
        checkpoints,
        report,
    })
}

/// The committed report as a sweep in shards of `sweep.shard` devices
/// writes it: only the population line's shard counts change.
fn committed_at(committed: &str, sweep: Sweep) -> Result<String, String> {
    let counts = |shard: u64| {
        let n = sweep.devices.div_ceil(shard);
        format!("\"shard_size\":{shard},\"shards\":{n},\"completed_shards\":{n}")
    };
    let from = counts(COMMITTED_SHARD);
    if !committed.contains(&from) {
        return Err(format!(
            "committed BENCH_fleet.json is not a {}-device sweep in {COMMITTED_SHARD}-device shards",
            sweep.devices
        ));
    }
    Ok(committed.replacen(&from, &counts(sweep.shard), 1))
}

/// The report every pass must write: the committed `BENCH_fleet.json` at
/// the default seed and full size, else the run's first report.
struct Expected {
    report: Option<String>,
}

impl Expected {
    fn new(ctx: &Ctx, sweep: Sweep) -> Result<Self, String> {
        let report = if ctx.seed == DEFAULT_SEED && !ctx.smoke {
            Some(committed_at(&ctx.committed("BENCH_fleet.json")?, sweep)?)
        } else {
            None
        };
        Ok(Self { report })
    }

    fn check(&mut self, p: Result<Pass, String>) -> Result<Pass, String> {
        let p = p?;
        match &self.report {
            None => self.report = Some(p.report.clone()),
            Some(want) if *want == p.report => {}
            Some(_) => {
                return Err("repro --fleet: BENCH_fleet.json differs from the reference".into())
            }
        }
        Ok(p)
    }
}

/// Mean |reduction / paper − 1| of the population's mean energy
/// reduction against the paper's two average reductions.
fn paper_rel_err(report: &str) -> f64 {
    let mean_bp = JsonValue::parse(report)
        .ok()
        .and_then(|d| d.get("energy_reduction_bp")?.get("mean")?.as_f64())
        .unwrap_or(f64::NAN);
    rel_err(&PAPER_REDUCTIONS.map(|p| (p, mean_bp / 1e4)))
}

/// A sweep on a checkpoint path that does not exist yet.
fn fresh_pass(ctx: &Ctx, sweep: Sweep) -> Result<Pass, String> {
    let dir = ctx.fresh_dir("ckpt").map_err(|e| format!("scratch: {e}"))?;
    let p = pass(ctx, sweep, Some(&dir.join("fleet.ckpt")));
    let _ = std::fs::remove_dir_all(&dir);
    p
}

fn sweep_of(ctx: &Ctx) -> Sweep {
    if ctx.smoke {
        SMOKE
    } else {
        FULL
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sweep = sweep_of(ctx);
    let mut expected = Expected::new(ctx, sweep)?;
    let mut o = Outcome::default();
    if ctx.trace {
        return traced(ctx, sweep, &mut expected, o);
    }
    let mut setup = Vec::new();
    let mut probe =
        |o: &mut Outcome| o.op(pass(ctx, ONE_SHARD, None).map(|p| setup.push(p.sample.wall_s)));
    for _ in 0..SETUP_PROBES {
        probe(&mut o);
    }
    // The first sweep pages the binary in; it is checked but not timed.
    let warm = expected.check(pass(ctx, sweep, None));
    o.op(warm.map(|_| ()));
    let mut passes: Vec<Sample> = Vec::new();
    let (mut last, mut failed) = (0.0, 0);
    while ctx.more(passes.len(), failed, 3, last) {
        match expected.check(pass(ctx, sweep, None)) {
            Ok(p) => {
                last = p.sample.wall_s;
                passes.push(p.sample);
                o.op(Ok(()));
                probe(&mut o);
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

/// The sweep's shards through `Harness::run` in 4-shard batches on one
/// worker, as `run_fleet` schedules them, with spans around each
/// `Harness::run` and each job's `run` when `spans` is set. Returns the
/// shard summaries in order.
fn harness_batches(seed: u64, sweep: Sweep, spans: Option<&Spans>) -> Result<Vec<String>, String> {
    let policy = HarnessPolicy {
        workers: WORKERS,
        ..HarnessPolicy::default()
    };
    let shards = sweep.shards();
    let mut out = Vec::new();
    for batch in (0..shards).step_by(SHARDS_PER_BATCH as usize) {
        let jobs = |parent: Option<u64>| -> Vec<Job> {
            (batch..(batch + SHARDS_PER_BATCH).min(shards))
                .map(|shard| {
                    let spans = spans.cloned();
                    Job::new(format!("shard-{shard}"), move |_ctx| {
                        let start = shard * sweep.shard;
                        let count = sweep.shard.min(sweep.devices - start);
                        let body =
                            || {
                                Ok(evaluate_shard(seed, start, count, SketchConfig::default())
                                    .render())
                            };
                        match &spans {
                            Some(s) => s.time("Job::run fleet-shard", parent, |_| body()),
                            None => body(),
                        }
                    })
                })
                .collect()
        };
        let report = match spans {
            Some(s) => s.time("Harness::run", None, |id| {
                Harness::new(policy.clone()).run(jobs(Some(id)))
            }),
            None => Harness::new(policy.clone()).run(jobs(None)),
        }
        .map_err(|e| format!("harness: {e}"))?;
        if !report.all_ok() {
            return Err(format!("harness batch: {}", report.summary().one_line()));
        }
        out.extend(report.results.into_iter().filter_map(|r| r.output));
    }
    Ok(out)
}

/// The traced run: CLI sweeps with and without checkpoints (interleaved),
/// `evaluate_shard` and the summary codec timed in-process, and the
/// sweep's harness batches with and without spans around `Harness::run`
/// and `Job::run` (after a warm-up, alternating which goes first).
fn traced(
    ctx: &Ctx,
    sweep: Sweep,
    expected: &mut Expected,
    mut o: Outcome,
) -> Result<Outcome, String> {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut writes = 0;
    for _ in 0..9 {
        let p = expected.check(fresh_pass(ctx, sweep));
        if let Ok(p) = &p {
            writes = p.checkpoints;
            with.push(p.sample.wall_s);
        }
        o.op(p.map(|_| ()));
        let p = expected.check(pass(ctx, sweep, None));
        if let Ok(p) = &p {
            without.push(p.sample.wall_s);
        }
        o.op(p.map(|_| ()));
    }
    o.set("fleet.shards", sweep.shards() as f64);
    o.set("fleet.checkpoints_written", writes as f64);
    let extra_ms = (stats::median(&with) - stats::median(&without)) * 1e3;
    o.set("fleet.checkpoint_ms", extra_ms / writes.max(1) as f64);

    let spans = Spans::new();
    let (mut eval, mut codec) = (Vec::new(), Vec::new());
    for i in 0..21 {
        let start = i * ONE_SHARD.shard;
        let s = spans.time("pim_fleet::evaluate_shard", None, |_| {
            evaluate_shard(ctx.seed, start, ONE_SHARD.shard, SketchConfig::default())
        });
        eval.push(spans.all().last().map_or(0.0, |sp| sp.ms()));
        let t = Instant::now();
        let back = ShardSummary::parse(&s.render());
        codec.push(t.elapsed().as_secs_f64() * 1e6);
        o.op(match back {
            Ok(b) if b == s => Ok(()),
            _ => Err("ShardSummary render/parse does not round-trip".into()),
        });
    }
    o.set("fleet.evaluate_shard_ms", stats::median(&eval));
    o.set("fleet.summary_codec_us", stats::median(&codec));

    let reference = harness_batches(ctx.seed, sweep, None);
    o.op(match &reference {
        Ok(r) if r.len() as u64 == sweep.shards() => Ok(()),
        _ => Err("in-process harness batches failed".into()),
    });
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for round in 0..4 {
        for with_spans in [round % 2 == 1, round % 2 == 0] {
            let t = Instant::now();
            let out = harness_batches(ctx.seed, sweep, with_spans.then_some(&spans));
            let wall = t.elapsed().as_secs_f64();
            if with_spans {
                spanned.push(wall);
            } else {
                plain.push(wall);
            }
            o.op(match (&out, &reference) {
                (Ok(a), Ok(b)) if a == b => Ok(()),
                _ => Err("in-process harness batches disagree".into()),
            });
        }
    }
    // `Harness::run` spans are recorded in order, one per batch, so each
    // run of `batches` of them is one spanned sweep.
    let batches = sweep.shards().div_ceil(SHARDS_PER_BATCH) as usize;
    let per_sweep: Vec<f64> = spans
        .self_ms("Harness::run")
        .chunks(batches)
        .map(|c| c.iter().sum())
        .collect();
    o.set("harness.overhead_ms", stats::median(&per_sweep));
    o.set(
        "bench.span_overhead_pct",
        (stats::median(&spanned) / stats::median(&plain) - 1.0) * 100.0,
    );
    let path = ctx
        .out_dir
        .join(format!("spans-fleet-seed{}.jsonl", ctx.seed));
    let _ = std::fs::remove_file(&path);
    spans
        .write(&path)
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leftover_checkpoint_is_a_failure() {
        let ctx = crate::testing::ctx("fleet", "leftover-checkpoint");
        let ckpt = ctx.scratch.join("leftover.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let first = pass(&ctx, SMOKE, Some(&ckpt));
        let again = pass(&ctx, SMOKE, Some(&ckpt));
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        let first = first.expect("a sweep on a fresh checkpoint");
        assert_eq!(first.checkpoints, SMOKE.shards().div_ceil(SHARDS_PER_BATCH));
        let err = again.expect_err("a sweep resumed from a leftover checkpoint");
        assert!(err.contains("resumed from a leftover checkpoint"), "{err}");
    }

    #[test]
    fn the_committed_report_is_rewritten_only_in_its_shard_counts() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_fleet.json"))
                .expect("committed BENCH_fleet.json");
        let at = committed_at(&committed, FULL).unwrap();
        let differ: Vec<(&str, &str)> = committed
            .lines()
            .zip(at.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(differ.len(), 1, "{differ:?}");
        assert!(differ[0].1.contains("\"shard_size\":10000,\"shards\":100,"));
        assert!(committed_at(&committed, SMOKE).is_err());
    }

    #[test]
    fn summary_line_is_parsed() {
        let log = "wrote BENCH_fleet.json (107 ms; 100 shards this run, 0 resumed, \
                   25 checkpoints written, 0 dropped)\n";
        assert_eq!(summary(log), Some((100, 0, 25, 0)));
    }
}
