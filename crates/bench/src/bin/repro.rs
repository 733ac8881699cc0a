//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p pim-bench --release --bin repro                 # everything
//! cargo run -p pim-bench --release --bin repro -- --experiment fig18
//! cargo run -p pim-bench --release --bin repro -- --list
//! cargo run -p pim-bench --release --bin repro -- --json       # scorecard JSON + both archives
//! cargo run -p pim-bench --release --bin repro -- --json --jobs 4 --journal sweep.jsonl
//! cargo run -p pim-bench --release --bin repro -- --json --jobs 4 --resume sweep.jsonl
//! cargo run -p pim-bench --release --bin repro -- --trace trace.json --metrics metrics.json
//! cargo run -p pim-bench --release --bin repro -- --explain          # attribution + both archives
//! cargo run -p pim-bench --release --bin repro -- --perf-gate        # history vs BENCH_baseline.json
//! cargo run -p pim-bench --release --bin repro -- --selftest-harness
//! ```
//!
//! Every sweep runs under the supervised harness: `--jobs N` fans the
//! work across N panic-isolated workers (merged output is byte-identical
//! to `--jobs 1`), `--journal` checkpoints each finished job to a JSONL
//! file (`--fsync off|data|full` picks how hard each record is pushed to
//! stable storage), and `--resume` re-runs only the jobs a killed sweep
//! left unfinished. `--trace` writes a Chrome trace-event file (open in
//! Perfetto or `chrome://tracing`); `--metrics` writes the flat metrics
//! dump from the same traced sweep.
//!
//! `--json` and `--explain` are two views of one scorecard run (see
//! `DESIGN.md` §4h). Either flag runs the scorecard sweep once, archives
//! the scorecard, wall-clock timing and harness failure report to
//! `BENCH_repro.json` and the same runs' bottleneck attribution
//! (per-kernel × per-mode cycle/energy breakdowns across six cost
//! components, plus a component-wise account of the measured-vs-paper
//! headline speedup gap) to `BENCH_explain.json`, appends the timing to
//! `BENCH_history.jsonl`, and exits non-zero on any non-waived divergent
//! verdict, any kernel × mode without a readable record, or any
//! quarantined/failed job. `--json` prints the scorecard plus the
//! harness failure report as JSON; `--explain` prints the attribution
//! table and the headline-gap prose.
//! `--selftest-harness` runs a tiny sweep with an injected panic and a
//! hung simulation and verifies the harness isolates both.
//! `--perf-gate` medians the recent `BENCH_history.jsonl` runs against
//! the committed `BENCH_baseline.json` budgets: machine-speed-corrected,
//! warn >10%, fail >25%, noise floor 50 ms (see `scripts/perf_gate.sh`).
//!
//! Fleet mode (see `DESIGN.md` §4i):
//!
//! ```text
//! cargo run -p pim-bench --release --bin repro -- --fleet \
//!     --devices 1000000 --seed 7 --jobs 4 --fleet-checkpoint fleet.ckpt
//! ```
//!
//! `--fleet` sweeps a deterministically sampled device population
//! (DRAM class, cache size, thermal envelope, fault rate, workload mix)
//! through the analytic energy model, folding results into
//! constant-memory sketches. `--fleet-checkpoint` makes the sweep
//! crash-safe: every folded batch is persisted atomically and a killed
//! run resumes to a byte-identical `BENCH_fleet.json`. `--mem-budget`
//! caps resident sketch state (resolution degrades, recorded in the
//! report, instead of OOM-ing); `--fleet-offset` replays a quarantined
//! shard's device range in isolation. Wall time feeds the perf gate as
//! the `fleet-sweep` experiment.
//!
//! Service mode (see `DESIGN.md` §4f):
//!
//! ```text
//! cargo run -p pim-bench --release --bin repro -- --serve 127.0.0.1:7009 \
//!     --jobs 4 --journal serve.jsonl            # fault-tolerant sweep service
//! cargo run -p pim-bench --release --bin repro -- --connect 127.0.0.1:7009
//! cargo run -p pim-bench --release --bin repro -- --connect 127.0.0.1:7009 --drain
//! ```
//!
//! `--serve` runs the `pim-serve` scheduler (the harness worker pool,
//! per-client quotas via `--quota`/`--queue-depth`, wall/watchdog
//! supervision, journal-backed crash recovery) with this crate's
//! catalog. `--connect` submits all 23 experiments as jobs and prints
//! stdout byte-identical to the default in-process run — even when the
//! server was SIGKILLed and restarted mid-sweep, because submissions are
//! idempotent and finished jobs replay from the journal. `--drain` asks
//! the server to shut down gracefully once the results are in.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use pim_harness::{FsyncPolicy, HarnessPolicy};

struct Cli {
    list: bool,
    json: bool,
    explain: bool,
    perf_gate: bool,
    selftest: bool,
    fleet: bool,
    devices: u64,
    seed: u64,
    shard_size: u64,
    mem_budget: u64,
    fleet_checkpoint: Option<String>,
    fleet_offset: u64,
    fleet_fail_every: Option<u64>,
    fleet_shard_delay_ms: u64,
    experiment: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    jobs: usize,
    journal: Option<String>,
    resume: Option<String>,
    serve: Option<String>,
    connect: Option<String>,
    drain: bool,
    quota: usize,
    queue_depth: usize,
    /// `--fsync`; unset, each mode takes its own policy's default.
    fsync: Option<FsyncPolicy>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        list: false,
        json: false,
        explain: false,
        perf_gate: false,
        selftest: false,
        fleet: false,
        devices: 100_000,
        seed: 7,
        shard_size: 1_000,
        mem_budget: 64 << 20,
        fleet_checkpoint: None,
        fleet_offset: 0,
        fleet_fail_every: None,
        fleet_shard_delay_ms: 0,
        experiment: None,
        trace: None,
        metrics: None,
        jobs: 1,
        journal: None,
        resume: None,
        serve: None,
        connect: None,
        drain: false,
        quota: 64,
        queue_depth: 1024,
        fsync: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => cli.list = true,
            "--json" => cli.json = true,
            "--explain" => cli.explain = true,
            "--perf-gate" => cli.perf_gate = true,
            "--selftest-harness" => cli.selftest = true,
            "--fleet" => cli.fleet = true,
            "--devices" => {
                let n = it.next().ok_or("--devices needs a count")?;
                cli.devices = n
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--devices needs a positive integer, got {n}"))?;
            }
            "--seed" => {
                let n = it.next().ok_or("--seed needs a value")?;
                cli.seed =
                    n.parse::<u64>().map_err(|_| format!("--seed needs an integer, got {n}"))?;
            }
            "--shard-size" => {
                let n = it.next().ok_or("--shard-size needs a count")?;
                cli.shard_size = n
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--shard-size needs a positive integer, got {n}"))?;
            }
            "--mem-budget" => {
                let n = it.next().ok_or("--mem-budget needs bytes")?;
                cli.mem_budget = n
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--mem-budget needs a byte count, got {n}"))?;
            }
            "--fleet-checkpoint" => {
                cli.fleet_checkpoint =
                    Some(it.next().ok_or("--fleet-checkpoint needs a path")?.clone());
            }
            "--fleet-offset" => {
                let n = it.next().ok_or("--fleet-offset needs a device index")?;
                cli.fleet_offset = n
                    .parse::<u64>()
                    .map_err(|_| format!("--fleet-offset needs an integer, got {n}"))?;
            }
            "--fleet-fail-every" => {
                let n = it.next().ok_or("--fleet-fail-every needs a shard count")?;
                cli.fleet_fail_every = Some(
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--fleet-fail-every needs a positive integer, got {n}"))?,
                );
            }
            "--fleet-shard-delay-ms" => {
                let n = it.next().ok_or("--fleet-shard-delay-ms needs milliseconds")?;
                cli.fleet_shard_delay_ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("--fleet-shard-delay-ms needs an integer, got {n}"))?;
            }
            "--experiment" => {
                cli.experiment =
                    Some(it.next().ok_or("--experiment needs an id")?.clone());
            }
            "--trace" => cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--metrics" => {
                cli.metrics = Some(it.next().ok_or("--metrics needs a path")?.clone());
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a worker count")?;
                cli.jobs = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got {n}"))?;
            }
            "--journal" => {
                cli.journal = Some(it.next().ok_or("--journal needs a path")?.clone());
            }
            "--resume" => {
                cli.resume = Some(it.next().ok_or("--resume needs a journal path")?.clone());
            }
            "--serve" => {
                cli.serve = Some(it.next().ok_or("--serve needs a listen address")?.clone());
            }
            "--connect" => {
                cli.connect =
                    Some(it.next().ok_or("--connect needs a server address")?.clone());
            }
            "--drain" => cli.drain = true,
            "--quota" => {
                let n = it.next().ok_or("--quota needs a job count")?;
                cli.quota = n
                    .parse::<usize>()
                    .map_err(|_| format!("--quota needs a non-negative integer, got {n}"))?;
            }
            "--queue-depth" => {
                let n = it.next().ok_or("--queue-depth needs a job count")?;
                cli.queue_depth = n
                    .parse::<usize>()
                    .map_err(|_| format!("--queue-depth needs a non-negative integer, got {n}"))?;
            }
            "--fsync" => {
                let v = it.next().ok_or("--fsync needs off|data|full")?;
                cli.fsync = Some(
                    FsyncPolicy::parse(v)
                        .ok_or(format!("--fsync needs off|data|full, got {v}"))?,
                );
            }
            other => {
                if let Some(v) = other.strip_prefix("--fsync=") {
                    cli.fsync = Some(
                        FsyncPolicy::parse(v)
                            .ok_or(format!("--fsync needs off|data|full, got {v}"))?,
                    );
                } else {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if cli.journal.is_some() && cli.resume.is_some() {
        return Err("--journal and --resume are mutually exclusive (resume \
                    appends to the journal it reads)"
            .to_string());
    }
    if cli.serve.is_some() && cli.connect.is_some() {
        return Err("--serve and --connect are mutually exclusive".to_string());
    }
    if cli.drain && cli.connect.is_none() {
        return Err("--drain only makes sense with --connect".to_string());
    }
    Ok(cli)
}

impl Cli {
    /// The sweep's harness policy: `--jobs` and `--fsync` over the
    /// harness defaults.
    fn policy(&self) -> HarnessPolicy {
        self.policy_over(HarnessPolicy::default())
    }

    /// The server's policy: `--jobs`, `--fsync`, `--quota` and
    /// `--queue-depth` over the service defaults, whose journal syncs.
    fn serve_policy(&self) -> pim_serve::ServePolicy {
        pim_serve::ServePolicy {
            harness: self.policy_over(pim_serve::ServePolicy::default().harness),
            quota: pim_serve::QuotaPolicy {
                max_in_flight_per_client: self.quota,
                max_queue_depth: self.queue_depth,
            },
        }
    }

    fn policy_over(&self, defaults: HarnessPolicy) -> HarnessPolicy {
        HarnessPolicy { workers: self.jobs, fsync: self.fsync.unwrap_or(defaults.fsync), ..defaults }
    }

    /// The journal path (if any) and whether to resume from it.
    fn journal(&self) -> (Option<&Path>, bool) {
        match (&self.resume, &self.journal) {
            (Some(p), _) => (Some(Path::new(p)), true),
            (None, Some(p)) => (Some(Path::new(p)), false),
            (None, None) => (None, false),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro [--list | --experiment <id> | --json | --explain | --perf-gate | \
                 --selftest-harness | --trace <path>] [--metrics <path>] [--jobs <n>] \
                 [--journal <path> | --resume <path>] [--fsync off|data|full]\n\
                 \x20      repro --serve <addr> [--jobs <n>] [--journal <path>] \
                 [--quota <n>] [--queue-depth <n>] [--fsync off|data|full]\n\
                 \x20      repro --connect <addr> [--drain]\n\
                 \x20      repro --fleet [--devices <n>] [--seed <n>] [--shard-size <n>] \
                 [--jobs <n>] [--mem-budget <bytes>] [--fleet-checkpoint <path>] \
                 [--fleet-offset <n>]"
            );
            return ExitCode::FAILURE;
        }
    };

    if cli.list {
        for id in pim_bench::EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    if cli.perf_gate {
        return perf_gate();
    }

    if cli.fleet {
        return fleet(&cli);
    }

    if let Some(addr) = &cli.serve {
        return match pim_bench::serve_cli::run_server(addr, cli.serve_policy(), cli.journal().0) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pim-serve: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(addr) = &cli.connect {
        return match pim_bench::serve_cli::run_client(addr, cli.drain) {
            Ok(results) => {
                if pim_harness::FailureSummary::from_results(&results).all_ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("pim-serve client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cli.selftest {
        return selftest(&cli);
    }

    if cli.json || cli.explain {
        return scorecard_run(&cli);
    }

    if cli.trace.is_some() || cli.metrics.is_some() {
        let a = pim_bench::obs::traced_sweep(false);
        if let Some(path) = &cli.trace {
            if let Err(e) = std::fs::write(path, &a.chrome_trace) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}: {} events across {} tracks", a.event_count, a.tracks.len());
        }
        if let Some(path) = &cli.metrics {
            if let Err(e) = std::fs::write(path, &a.metrics) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &cli.experiment {
        pim_bench::serve_cli::banner(id);
        return match pim_bench::run_experiment(id) {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}; try --list");
                ExitCode::FAILURE
            }
        };
    }

    all_experiments(&cli)
}

/// `--fleet`: the crash-safe population sweep (see `DESIGN.md` §4i).
/// Writes the deterministic `BENCH_fleet.json` report and appends a
/// `fleet-sweep` timing line for the perf gate.
fn fleet(cli: &Cli) -> ExitCode {
    let cfg = pim_fleet::FleetConfig {
        seed: cli.seed,
        devices: cli.devices,
        offset: cli.fleet_offset,
        shard_size: cli.shard_size,
        workers: cli.jobs,
        mem_budget_bytes: cli.mem_budget,
        checkpoint: cli.fleet_checkpoint.as_ref().map(std::path::PathBuf::from),
        fail_shard_every: cli.fleet_fail_every,
        shard_delay_ms: cli.fleet_shard_delay_ms,
        ..pim_fleet::FleetConfig::default()
    };
    let outcome = match pim_bench::fleet_cli::run_fleet_cli(
        &cfg,
        Path::new("BENCH_fleet.json"),
        Some(Path::new("BENCH_history.jsonl")),
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fleet sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !outcome.state.quarantined.is_empty() {
        eprintln!(
            "fleet: {} shard(s) quarantined (replay seeds in BENCH_fleet.json)",
            outcome.state.quarantined.len()
        );
    }
    ExitCode::SUCCESS
}

/// `--perf-gate`: compare the recent `BENCH_history.jsonl` window
/// against the committed `BENCH_baseline.json` budgets.
fn perf_gate() -> ExitCode {
    let config = pim_bench::perf_gate::GateConfig::default();
    match pim_bench::perf_gate::run_gate(
        Path::new("BENCH_history.jsonl"),
        Path::new("BENCH_baseline.json"),
        &config,
    ) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The default run: every experiment as a supervised harness job. One
/// panicking or hung experiment no longer kills the whole regeneration —
/// its siblings complete and the failure report says what broke.
fn all_experiments(cli: &Cli) -> ExitCode {
    let mut harness = pim_harness::Harness::new(cli.policy());
    let (journal, resume) = cli.journal();
    if let Some(path) = journal {
        harness = if resume { harness.resume_from(path) } else { harness.with_journal(path) };
    }
    let report = match harness.run(pim_bench::jobs::experiment_jobs()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::FAILURE;
        }
    };
    pim_bench::serve_cli::print_results(&report.results);
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--json` and `--explain`: one scorecard sweep, two views of it. Both
/// write `BENCH_repro.json` and `BENCH_explain.json`, append the run's
/// timing to `BENCH_history.jsonl` and apply one gate: exit non-zero on
/// any non-waived divergent verdict, missing record or quarantined/failed
/// job. `--json` prints the scorecard document, `--explain` the
/// attribution table and headline-gap prose.
fn scorecard_run(cli: &Cli) -> ExitCode {
    let t0 = Instant::now();
    let (journal, resume) = cli.journal();
    let out = match pim_bench::jobs::scorecard_sweep(false, cli.policy(), journal, resume) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (entries, records, report) = (out.entries(), out.explain_records(), &out.report);
    let wall_ms = t0.elapsed().as_millis() as u64;
    // Per-experiment wall times, collected outside the journal so resumed
    // sweeps keep bit-identical results (resumed jobs have no entry here).
    // Aggregated across attempts: a retried job reports total ms + count.
    let timing = pim_bench::perf_gate::timing_json(
        wall_ms,
        &pim_bench::jobs::aggregate_timings(&out.timings),
    );
    if let Err(e) = pim_bench::perf_gate::append_history(Path::new("BENCH_history.jsonl"), &timing)
    {
        eprintln!("failed to append BENCH_history.jsonl: {e}");
        return ExitCode::FAILURE;
    }
    let bench = timing
        .set("source", "dmpim repro --json")
        .set("scorecard", pim_bench::scorecard::entries_json(&entries))
        .set("harness", report.to_json_value());
    let explain = pim_bench::explain::explain_json(&records, report);
    for (path, doc) in
        [("BENCH_repro.json", bench.render_pretty()), ("BENCH_explain.json", explain)]
    {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "wrote BENCH_repro.json ({wall_ms} ms) and BENCH_explain.json ({} records)",
        records.len()
    );
    if cli.json {
        println!("{}", pim_bench::scorecard::to_json_with_harness(&entries, Some(report)));
    } else {
        print!("{}", pim_bench::explain::explain_text(&records));
    }
    let summary = report.summary();
    let failures = pim_bench::scorecard::gate_failures(&entries, &out.missing, Some(&summary));
    if failures.is_empty() {
        eprintln!("gate: ok ({})", summary.one_line());
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("gate: {f}");
        }
        ExitCode::FAILURE
    }
}

/// `--selftest-harness`: prove the supervision machinery end-to-end.
fn selftest(cli: &Cli) -> ExitCode {
    let workers = cli.jobs.max(2);
    let (report, mismatches) = match pim_bench::jobs::selftest(workers) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.to_json_value().render_pretty());
    let summary = report.summary();
    eprintln!("harness selftest ({workers} workers): {}", summary.one_line());
    if mismatches.is_empty() {
        eprintln!("harness selftest: ok (panic isolated, runaway quarantined)");
        ExitCode::SUCCESS
    } else {
        for m in &mismatches {
            eprintln!("harness selftest: {m}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn an_unset_fsync_takes_each_modes_own_default() {
        let serve = cli(&["--serve", "127.0.0.1:0", "--jobs", "3", "--quota", "5"]);
        let policy = serve.serve_policy();
        assert_eq!(policy.harness.fsync, pim_serve::ServePolicy::default().harness.fsync);
        assert_eq!(policy.harness.fsync, FsyncPolicy::Data, "the write-ahead log syncs");
        assert_eq!((policy.harness.workers, policy.quota.max_in_flight_per_client), (3, 5));
        assert_eq!(cli(&["--json", "--journal", "j.jsonl"]).policy().fsync, FsyncPolicy::Off);
        for (args, want) in [
            (&["--serve", "127.0.0.1:0", "--fsync", "off"][..], FsyncPolicy::Off),
            (&["--serve", "127.0.0.1:0", "--fsync=full"][..], FsyncPolicy::Full),
        ] {
            assert_eq!(cli(args).serve_policy().harness.fsync, want, "{args:?}");
        }
        assert_eq!(cli(&["--json", "--fsync", "data"]).policy().fsync, FsyncPolicy::Data);
    }
}
