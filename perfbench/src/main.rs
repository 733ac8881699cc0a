//! `perfbench`: the repo benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <scorecard|traced-faulted|serve|fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds `repro` and this binary from source, then runs one
//! workload for about `--seconds` seconds. Every pass is verified and
//! hermetic (a fresh directory under `.bench_tmp/`). The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! span recording off; with `--trace 1` they are the per-layer ones from
//! spans this benchmark records around its calls into each layer (see
//! `perfbench/README.md`).

mod fleet;
mod metrics;
mod proc;
mod scorecard;
mod serve;
mod spans;
mod stats;
mod traced_faulted;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::Outcome;

/// The seed a run uses when none is given; also the traced-faulted fault
/// plan's seed, whose outputs `perfbench/reference/` records.
pub const DEFAULT_SEED: u64 = 7;
/// No new pass starts after this many seconds of a run, so that even a
/// pass cut at its own limit ends the run within three minutes.
const HARD_STOP_S: f64 = 100.0;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Checkout root: committed artifacts are read from here.
    pub root: PathBuf,
    /// The `repro` binary under test.
    pub repro: PathBuf,
    /// Parent of every per-pass scratch directory.
    pub scratch: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
    /// Recorded traced-faulted digests.
    pub reference: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes (tests): smoke kernels, a few dozen jobs per session,
    /// 10k devices.
    pub smoke: bool,
    started: Instant,
    dirs: std::cell::Cell<u64>,
}

impl Ctx {
    /// Seconds since the run started.
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether to run another pass: at least `min` good ones, more while
    /// one more of `last` seconds fits the budget — but never past three
    /// failed passes or the hard stop.
    pub fn more(&self, done: usize, failed: usize, min: usize, last: f64) -> bool {
        failed < 3
            && self.elapsed() < HARD_STOP_S
            && (done < min || self.elapsed() + last <= self.seconds)
    }

    /// A new, empty scratch directory for one pass.
    pub fn fresh_dir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let n = self.dirs.get() + 1;
        self.dirs.set(n);
        let dir = self
            .scratch
            .join(format!("{}-{tag}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// A committed artifact at the checkout root.
    pub fn committed(&self, name: &str) -> Result<String, String> {
        let path = self.root.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: Option<PathBuf>,
    root: PathBuf,
    reference: Option<PathBuf>,
    smoke: bool,
    record_reference: bool,
    tf_pass: Option<traced_faulted::PassArgs>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        repro: None,
        root: PathBuf::from("."),
        reference: None,
        smoke: false,
        record_reference: false,
        tf_pass: None,
    };
    let mut tf = traced_faulted::PassArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                }
            }
            "--repro" => a.repro = Some(PathBuf::from(value()?)),
            "--root" => a.root = PathBuf::from(value()?),
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--record-reference" => a.record_reference = true,
            // Child mode: one traced-faulted pass in a fresh process.
            "--tf-pass" => a.tf_pass = Some(traced_faulted::PassArgs::default()),
            "--plain" => tf.plain = true,
            "--spans-out" => tf.spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(p) = a.tf_pass.as_mut() {
        *p = traced_faulted::PassArgs {
            seed: a.seed,
            smoke: a.smoke,
            ..tf
        };
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scorecard|traced-faulted|serve|fleet> --seed <n> \
                 --seconds <s> --trace <0|1> --repro <path> [--root <dir>] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = &args.tf_pass {
        return traced_faulted::child_main(pass);
    }
    match run(args) {
        Ok(outcome) => {
            if let Some(o) = outcome {
                println!("{}", o.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<Option<Outcome>, String> {
    let root = args.root.canonicalize().map_err(|e| format!("root: {e}"))?;
    let repro = args
        .repro
        .ok_or("--repro <path> is required (run.sh passes it)")?;
    if !repro.is_file() {
        return Err(format!("no repro binary at {}", repro.display()));
    }
    let ctx = Ctx {
        repro: repro.canonicalize().map_err(|e| format!("repro: {e}"))?,
        scratch: root.join(".bench_tmp"),
        out_dir: root.join(".bench_out"),
        reference: args
            .reference
            .unwrap_or_else(|| root.join("perfbench/reference/traced-faulted.txt")),
        root,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        started: Instant::now(),
        dirs: std::cell::Cell::new(0),
    };
    if args.record_reference {
        traced_faulted::record_reference(&ctx)?;
        eprintln!("perfbench: wrote {}", ctx.reference.display());
        return Ok(None);
    }
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("scratch: {e}"))?;
    let guard = RootGuard::snapshot(&ctx.root);
    let outcome = match ctx.workload.as_str() {
        "scorecard" => scorecard::run(&ctx),
        "traced-faulted" => traced_faulted::run(&ctx),
        "serve" => serve::run(&ctx),
        "fleet" => fleet::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    remove_scratch(&ctx.scratch);
    let mut outcome = outcome?;
    // Hermeticity: a run must leave the checkout's artifacts untouched.
    for problem in guard.changes() {
        outcome.fail(problem);
    }
    outcome.finish(ctx.trace).map(Some)
}

/// Remove this process's pass directories (and the parent, once empty).
fn remove_scratch(scratch: &Path) {
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(scratch) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let _ = std::fs::remove_dir(scratch);
}

/// Fingerprints of the checkout's `BENCH_*` artifacts, taken before a run
/// and compared after it.
struct RootGuard {
    root: PathBuf,
    before: Vec<(String, Option<Vec<u8>>)>,
}

const ROOT_ARTIFACTS: [&str; 5] = [
    "BENCH_repro.json",
    "BENCH_fleet.json",
    "BENCH_explain.json",
    "BENCH_baseline.json",
    "BENCH_history.jsonl",
];

impl RootGuard {
    fn snapshot(root: &Path) -> Self {
        let before = ROOT_ARTIFACTS
            .iter()
            .map(|n| (n.to_string(), std::fs::read(root.join(n)).ok()))
            .collect();
        Self {
            root: root.to_path_buf(),
            before,
        }
    }

    fn changes(&self) -> Vec<String> {
        self.before
            .iter()
            .filter(|(n, bytes)| std::fs::read(self.root.join(n)).ok() != *bytes)
            .map(|(n, _)| format!("hermeticity: the run changed {n} in the checkout"))
            .collect()
    }
}

/// Test support: a smoke-size context on the `repro` built from the repo's
/// own workspace.
#[cfg(test)]
pub mod testing {
    use super::*;
    use std::sync::OnceLock;

    fn repo() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .canonicalize()
            .expect("repo root")
    }

    fn repro() -> PathBuf {
        static REPRO: OnceLock<PathBuf> = OnceLock::new();
        REPRO
            .get_or_init(|| {
                let target = repo().join("target");
                let ok = std::process::Command::new(env!("CARGO"))
                    .args(["build", "--release", "--offline", "--quiet"])
                    .args(["-p", "pim-bench", "--bin", "repro"])
                    .current_dir(repo())
                    .env("CARGO_TARGET_DIR", &target)
                    .status()
                    .expect("cargo");
                assert!(ok.success(), "building repro failed");
                target.join("release/repro")
            })
            .clone()
    }

    /// A context whose scratch directory is private to `tag`.
    pub fn ctx(workload: &str, tag: &str) -> Ctx {
        let root = repo();
        let scratch = root.join(".bench_tmp").join(format!("unit-{tag}"));
        std::fs::create_dir_all(&scratch).expect("scratch");
        Ctx {
            repro: repro(),
            out_dir: scratch.join("out"),
            reference: root.join("perfbench/reference/traced-faulted.txt"),
            scratch,
            root,
            workload: workload.to_string(),
            seed: 41,
            seconds: 1.0,
            trace: false,
            smoke: true,
            started: Instant::now(),
            dirs: std::cell::Cell::new(0),
        }
    }
}
