//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p pim-bench --release --bin repro                 # everything
//! cargo run -p pim-bench --release --bin repro -- --experiment fig18
//! cargo run -p pim-bench --release --bin repro -- --list
//! cargo run -p pim-bench --release --bin repro -- --json       # scorecard JSON + BENCH_repro.json
//! cargo run -p pim-bench --release --bin repro -- --json --jobs 4 --journal sweep.jsonl
//! cargo run -p pim-bench --release --bin repro -- --json --jobs 4 --resume sweep.jsonl
//! cargo run -p pim-bench --release --bin repro -- --trace trace.json --metrics metrics.json
//! cargo run -p pim-bench --release --bin repro -- --explain          # attribution + BENCH_explain.json
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
//! dump from the same traced sweep. `--json` prints the paper-vs-measured
//! scorecard plus the harness failure report as JSON, archives both
//! (with wall-clock timing) to `BENCH_repro.json`, and exits non-zero on
//! any non-waived divergent verdict or any quarantined/failed job.
//! `--selftest-harness` runs a tiny sweep with an injected panic and a
//! hung simulation and verifies the harness isolates both.
//!
//! Observability mode (see `DESIGN.md` §4h): `--explain` runs the
//! scorecard sweep and renders its runs' bottleneck attribution
//! (per-kernel × per-mode cycle/energy breakdowns across six cost
//! components): the table plus a component-wise account of the
//! measured-vs-paper headline speedup gap, archived as
//! `BENCH_explain.json`. It takes `--jobs`, `--journal` and `--resume`
//! like `--json`, and fails when a kernel × mode has no readable record.
//! `--perf-gate` medians the recent `BENCH_history.jsonl` runs (appended
//! by every `--json` sweep) against the committed `BENCH_baseline.json`
//! budgets: machine-speed-corrected, warn >10%, fail >25%, noise floor
//! 50 ms (see `scripts/perf_gate.sh`).
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
use pim_trace::JsonValue;

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
    fsync: FsyncPolicy,
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
        fsync: FsyncPolicy::default(),
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
                cli.fsync = FsyncPolicy::parse(v)
                    .ok_or(format!("--fsync needs off|data|full, got {v}"))?;
            }
            other => {
                if let Some(v) = other.strip_prefix("--fsync=") {
                    cli.fsync = FsyncPolicy::parse(v)
                        .ok_or(format!("--fsync needs off|data|full, got {v}"))?;
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
    fn policy(&self) -> HarnessPolicy {
        HarnessPolicy { workers: self.jobs, fsync: self.fsync, ..HarnessPolicy::default() }
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

    if cli.explain {
        return explain(&cli);
    }

    if let Some(addr) = &cli.serve {
        let (journal, _) = cli.journal();
        let opts = pim_bench::serve_cli::ServeOptions {
            addr: addr.clone(),
            workers: cli.jobs,
            journal: journal.map(Path::to_path_buf),
            quota: cli.quota,
            queue_depth: cli.queue_depth,
            fsync: cli.fsync,
        };
        return match pim_bench::serve_cli::run_server(&opts) {
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

    if cli.json {
        return json_scorecard(&cli);
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
        banner(id);
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
    let opts = pim_bench::fleet_cli::FleetOptions {
        devices: cli.devices,
        seed: cli.seed,
        offset: cli.fleet_offset,
        shard_size: cli.shard_size,
        workers: cli.jobs,
        mem_budget_bytes: cli.mem_budget,
        checkpoint: cli.fleet_checkpoint.as_ref().map(std::path::PathBuf::from),
        fail_every: cli.fleet_fail_every,
        shard_delay_ms: cli.fleet_shard_delay_ms,
        ..pim_bench::fleet_cli::FleetOptions::default()
    };
    let outcome = match pim_bench::fleet_cli::run_fleet_cli(&opts) {
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

/// `--explain`: the scorecard sweep's attribution records. Prints the
/// human table + headline-gap prose and archives `BENCH_explain.json`.
fn explain(cli: &Cli) -> ExitCode {
    let (journal, resume) = cli.journal();
    let out = match pim_bench::jobs::scorecard_sweep(false, cli.policy(), journal, resume) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = out.explain_records();
    print!("{}", pim_bench::explain::explain_text(&records));
    let doc = pim_bench::explain::explain_json(&records, &out.report);
    if let Err(e) = std::fs::write("BENCH_explain.json", doc) {
        eprintln!("failed to write BENCH_explain.json: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote BENCH_explain.json ({} records)", records.len());
    let summary = out.report.summary();
    eprintln!("harness: {}", summary.one_line());
    let failures = pim_bench::scorecard::gate_failures(&[], &out.missing, Some(&summary));
    for f in &failures {
        eprintln!("explain: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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
    for r in &report.results {
        banner(&r.id);
        match &r.output {
            Some(text) => println!("{text}"),
            None => eprintln!(
                "experiment {} {}: {}",
                r.id,
                r.status.label(),
                r.error.as_deref().unwrap_or("unknown error")
            ),
        }
    }
    let summary = report.summary();
    eprintln!("harness: {}", summary.one_line());
    if summary.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--json`: the harness-driven scorecard sweep, with CI gating.
fn json_scorecard(cli: &Cli) -> ExitCode {
    let t0 = Instant::now();
    let (journal, resume) = cli.journal();
    let out = match pim_bench::jobs::scorecard_sweep(false, cli.policy(), journal, resume) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (entries, report) = (out.entries(), &out.report);
    let doc = pim_bench::scorecard::to_json_with_harness(&entries, Some(report));
    println!("{doc}");
    let wall_ms = t0.elapsed().as_millis() as u64;
    // Per-experiment wall times, collected outside the journal so resumed
    // sweeps keep bit-identical results (resumed jobs have no entry here).
    // Aggregated across attempts: a retried job reports total ms + count.
    let aggregated = pim_bench::jobs::aggregate_timings(&out.timings);
    let mut exps = JsonValue::array();
    for (id, ms, attempts) in &aggregated {
        exps = exps.push(
            JsonValue::object()
                .set("id", id.as_str())
                .set("wall_ms", *ms)
                .set("attempts", *attempts),
        );
    }
    let bench = JsonValue::object()
        .set("source", "dmpim repro --json")
        .set("wall_ms", wall_ms)
        .set("experiments", exps)
        .set("scorecard", pim_bench::scorecard::entries_json(&entries))
        .set("harness", report.to_json_value())
        .render_pretty();
    if let Err(e) = std::fs::write("BENCH_repro.json", bench) {
        eprintln!("failed to write BENCH_repro.json: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote BENCH_repro.json ({wall_ms} ms)");
    // Feed the perf-regression gate: one compact line per run.
    let line = pim_bench::perf_gate::history_line(wall_ms, &aggregated);
    if let Err(e) = append_line("BENCH_history.jsonl", &line) {
        eprintln!("failed to append BENCH_history.jsonl: {e}");
        return ExitCode::FAILURE;
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

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

fn banner(id: &str) {
    println!("{}", "=".repeat(72));
    println!("== {id}");
    println!("{}", "=".repeat(72));
}
