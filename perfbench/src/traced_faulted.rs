//! `traced-faulted`: the nine catalog kernels × three modes through
//! `OffloadEngine` with a fresh enabled `Tracer` per kernel (its Chrome
//! trace rendered) and `FaultConfig::with_rate(0.5)`. Either one forces
//! every access onto the scalar walk, so this workload exercises the
//! scalar walk, fault draws, retry/fallback and trace export.
//!
//! Each pass runs in a fresh child process (`perfbench --tf-pass`), so
//! its peak RSS is its own and every pass starts from fresh kernels.
//! The same loop without tracer and faults is the plain reference for
//! `core.slowdown_vs_plain`, and (in-process) the scorecard's kernel
//! spans.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use pim_bench::jobs::kernel_catalog;
use pim_bench::scorecard::{entries_from_metrics, KernelMetrics};
use pim_core::{ExecutionMode, FaultConfig, OffloadEngine, RunReport, Tracer};

use crate::metrics::{Outcome, Sample};
use crate::spans::Spans;
use crate::{proc, Ctx};

/// The fault plan's seed. It is fixed: over seeds 1-8 the plan's retries
/// and fallbacks moved a pass between 11.4 s and 17.4 s and its peak RSS
/// between 258 and 663 MB, which would swamp any change under test. The
/// workload seed orders the kernels instead.
pub const FAULT_SEED: u64 = crate::DEFAULT_SEED;
/// `FaultConfig::with_rate` of the workload.
const FAULT_RATE: f64 = 0.5;
/// A pass that is not done by then is killed and counted as failed.
const PASS_LIMIT: Duration = Duration::from_secs(70);

/// Options of one child pass.
#[derive(Debug, Default, Clone)]
pub struct PassArgs {
    pub seed: u64,
    pub smoke: bool,
    /// No tracer and no faults: the plain reference loop.
    pub plain: bool,
    /// Record spans and per-layer totals, writing the spans here.
    pub spans_out: Option<PathBuf>,
}

/// Per-layer totals of one loop over the catalog.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub values: BTreeMap<&'static str, f64>,
}

impl Totals {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }
}

/// What one loop over the catalog produced.
pub struct LoopResult {
    /// `(kernel, digest of its three reports and its Chrome trace)`.
    pub digests: Vec<(String, u64)>,
    pub metrics: Vec<KernelMetrics>,
    pub totals: Totals,
    /// Kernel-construction time before the loop.
    pub setup: Duration,
    pub wall: Duration,
    pub errors: Vec<String>,
}

/// Metric name of a kernel's span total.
fn kernel_metric(kernel: &str) -> Option<&'static str> {
    Some(match kernel {
        "texture tiling" => "chrome.tiling_ms",
        "color blitting" => "chrome.blitting_ms",
        "compression" => "chrome.compression_ms",
        "decompression" => "chrome.decompression_ms",
        "packing" => "tfmobile.packing_ms",
        "quantization" => "tfmobile.quantization_ms",
        "sub-pixel interpolation" => "vp9.interpolation_ms",
        "deblocking filter" => "vp9.deblocking_ms",
        "motion estimation" => "vp9.motion-estimation_ms",
        _ => return None,
    })
}

fn mode_metric(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::CpuOnly => "core.cpu-only_ms",
        ExecutionMode::PimCore => "core.pim-core_ms",
        ExecutionMode::PimAcc => "core.pim-acc_ms",
    }
}

/// FNV-1a, 64-bit.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Sum a report's simulated counts into the per-layer totals.
fn add_report(t: &mut Totals, r: &RunReport) {
    let a = &r.activity;
    t.add("cpusim.instructions", r.instructions as f64);
    t.add("memsim.l1_accesses", a.l1_accesses as f64);
    t.add("memsim.llc_accesses", a.llc_accesses as f64);
    t.add("memsim.scratch_accesses", a.scratch_accesses as f64);
    t.add("memsim.memctrl_requests", a.memctrl_requests as f64);
    t.add("memsim.row_hits", a.row_hits as f64);
    t.add("memsim.row_misses", a.row_misses as f64);
    t.add("memsim.offchip_bytes", a.offchip_bytes as f64);
    t.add("memsim.internal_bytes", a.internal_bytes as f64);
    t.add("core.sim_runtime_ps", r.runtime_ps as f64);
    t.add("energy.total_pj", r.energy.total_pj());
    // Attempts: the first, every retry and every fallback.
    let (retries, fallbacks) = r
        .degradation
        .as_ref()
        .map_or((0, 0), |d| (d.retries, d.fallbacks));
    t.add("attempts", f64::from(1 + retries + fallbacks));
    if let Some(d) = &r.degradation {
        t.add("core.retries", f64::from(d.retries));
        t.add("core.fallbacks", f64::from(d.fallbacks));
        t.add("core.abandoned_ps", d.abandoned_ps as f64);
        t.add("faults.bit_flips", d.faults.bit_flips as f64);
        t.add("faults.corrected", d.faults.corrected as f64);
        t.add("faults.uncorrectable", d.faults.uncorrectable as f64);
    }
}

/// One loop over the catalog: every kernel × mode through
/// `OffloadEngine::try_run`, spans around each call when `spans` is set.
/// `traced_faulted` attaches a fresh tracer per kernel plus the fault plan.
pub fn sim_loop(
    smoke: bool,
    traced_faulted: bool,
    order_seed: u64,
    spans: Option<&Spans>,
) -> LoopResult {
    let mut catalog = kernel_catalog(smoke);
    let n = catalog.len();
    catalog.rotate_left((order_seed % n as u64) as usize);
    // Building the kernels is the pass's set-up.
    let t0 = Instant::now();
    let mut kernels: Vec<_> = catalog
        .iter()
        .map(|(name, kind, f)| (*name, *kind, f()))
        .collect();
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let mut out = LoopResult {
        digests: Vec::new(),
        metrics: Vec::new(),
        totals: Totals::default(),
        setup,
        wall: Duration::ZERO,
        errors: Vec::new(),
    };
    let time = |name: String, f: &mut dyn FnMut()| match spans {
        Some(s) => s.time(&name, None, |_| f()),
        None => f(),
    };
    for (name, kind, kernel) in kernels.iter_mut() {
        let tracer = if traced_faulted {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let mut engine = OffloadEngine::new().with_tracer(&tracer);
        if traced_faulted {
            engine = engine.with_faults(FaultConfig::with_rate(FAULT_RATE), FAULT_SEED);
        }
        let mut reports = Vec::new();
        for mode in ExecutionMode::ALL {
            let mut result = None;
            time(
                format!("OffloadEngine::try_run {name}@{}", mode.label()),
                &mut || {
                    result = Some(engine.try_run(kernel.as_mut(), mode));
                },
            );
            match result {
                Some(Ok(r)) => reports.push(r),
                Some(Err(e)) => out.errors.push(format!("{name}@{}: {e}", mode.label())),
                None => {}
            }
        }
        let mut digest = FNV_INIT;
        for r in &reports {
            add_report(&mut out.totals, r);
            digest = fnv(digest, r.to_json().as_bytes());
        }
        if traced_faulted {
            let mut json = String::new();
            time(format!("Tracer::chrome_trace {name}"), &mut || {
                json = tracer.chrome_trace()
            });
            digest = fnv(digest, json.as_bytes());
            out.totals.add("trace.events", tracer.event_count() as f64);
            out.totals
                .add("trace.dropped", tracer.dropped_events() as f64);
            out.totals.add("trace.json_bytes", json.len() as f64);
        }
        if let [cpu, core, acc] = &reports[..] {
            out.metrics
                .push(KernelMetrics::from_reports(name, *kind, cpu, core, acc));
        }
        out.digests.push((name.to_string(), digest));
    }
    out.wall = t1.elapsed();
    // Back into catalog order: the scorecard's means are order-sensitive
    // in their last bits.
    let order: Vec<&str> = kernel_catalog(smoke).into_iter().map(|(n, ..)| n).collect();
    out.metrics
        .sort_by_key(|m| order.iter().position(|n| *n == m.name));
    if let Some(s) = spans {
        let per = |pick: &dyn Fn(&str) -> bool| s.ms_where(|n| pick(n)).iter().sum::<f64>();
        for (name, ..) in &catalog {
            if let Some(metric) = kernel_metric(name) {
                let prefix = format!("OffloadEngine::try_run {name}@");
                out.totals.add(metric, per(&|n| n.starts_with(&prefix)));
            }
        }
        for mode in ExecutionMode::ALL {
            let suffix = format!("@{}", mode.label());
            out.totals.add(
                mode_metric(mode),
                per(&|n| n.starts_with("OffloadEngine::try_run ") && n.ends_with(&suffix)),
            );
        }
        out.totals.add(
            "trace.export_ms",
            per(&|n| n.starts_with("Tracer::chrome_trace ")),
        );
        let v = &out.totals.values;
        let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
        let accesses =
            get("memsim.l1_accesses") + get("memsim.llc_accesses") + get("memsim.scratch_accesses");
        let run_ms = per(&|n| n.starts_with("OffloadEngine::try_run "));
        let yield_ = (out.metrics.len() * 3) as f64 / get("attempts").max(1.0);
        out.totals.add(
            "memsim.host_ns_per_access",
            run_ms * 1e6 / accesses.max(1.0),
        );
        out.totals.add("core.attempt_yield", yield_);
    }
    out.totals.values.remove("attempts");
    out
}

/// Mean |measured/paper − 1| over scorecard rows.
pub fn rel_err(rows: &[(f64, f64)]) -> f64 {
    let errs: Vec<f64> = rows
        .iter()
        .map(|(paper, m)| (m / paper - 1.0).abs())
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// The scorecard rows a set of kernel measurements supports.
pub fn paper_rows(metrics: &[KernelMetrics]) -> Vec<(f64, f64)> {
    entries_from_metrics(metrics)
        .iter()
        .map(|e| (e.paper, e.measured))
        .collect()
}

/// Child mode: one pass, reported on stdout as `key value` lines.
pub fn child_main(args: &PassArgs) -> ExitCode {
    let spans = args.spans_out.as_ref().map(|_| Spans::new());
    let r = sim_loop(args.smoke, !args.plain, args.seed, spans.as_ref());
    println!("setup_s {}", r.setup.as_secs_f64());
    println!("pass_s {}", r.wall.as_secs_f64());
    println!("paper_rel_err {}", rel_err(&paper_rows(&r.metrics)));
    for (kernel, digest) in &r.digests {
        println!("digest {digest:016x} {kernel}");
    }
    for (name, v) in &r.totals.values {
        println!("layer {name} {v}");
    }
    for e in &r.errors {
        println!("error {e}");
    }
    if let (Some(s), Some(path)) = (&spans, &args.spans_out) {
        if let Err(e) = s.write(path) {
            println!("error writing spans: {e}");
        }
    }
    ExitCode::SUCCESS
}

/// A parsed child pass.
struct Pass {
    sample: Sample,
    setup_s: f64,
    digests: Vec<(String, String)>,
    layers: BTreeMap<String, f64>,
}

fn spawn_pass(ctx: &Ctx, plain: bool, spans_out: Option<&PathBuf>) -> Result<Pass, String> {
    let dir = ctx.fresh_dir("tf").map_err(|e| format!("scratch: {e}"))?;
    let out_path = dir.join("pass.txt");
    let out = std::fs::File::create(&out_path).map_err(|e| format!("{e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--tf-pass", "--seed", &ctx.seed.to_string()])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(out);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    if plain {
        cmd.arg("--plain");
    }
    if let Some(p) = spans_out {
        cmd.arg("--spans-out").arg(p);
    }
    let exit = proc::run(&mut cmd, PASS_LIMIT).map_err(|e| format!("spawn pass: {e}"))?;
    let text = std::fs::read_to_string(&out_path).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    exit.ok().map_err(|e| format!("traced-faulted pass: {e}"))?;
    let runs = (kernel_catalog(ctx.smoke).len() * 3) as f64;
    let sample = Sample {
        wall_s: f64::NAN,
        jobs: runs,
        rss_mb: exit.rss_mb(),
        rel_err: f64::NAN,
    };
    let mut pass = Pass {
        sample,
        setup_s: f64::NAN,
        digests: Vec::new(),
        layers: BTreeMap::new(),
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || rest.parse::<f64>().unwrap_or(f64::NAN);
        match key {
            "setup_s" => pass.setup_s = num(),
            "pass_s" => pass.sample.wall_s = num(),
            "paper_rel_err" => pass.sample.rel_err = num(),
            "digest" => {
                let (hex, kernel) = rest.split_once(' ').unwrap_or((rest, ""));
                pass.digests.push((kernel.to_string(), hex.to_string()));
            }
            "layer" => {
                let (name, v) = rest.split_once(' ').unwrap_or((rest, ""));
                pass.layers
                    .insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            "error" => return Err(format!("traced-faulted pass: {rest}")),
            _ => {}
        }
    }
    pass.digests.sort();
    if !pass.sample.wall_s.is_finite() || pass.digests.is_empty() {
        return Err("traced-faulted pass printed no result".to_string());
    }
    Ok(pass)
}

/// Recorded digests for this run's size: `(kernel, hex)`, sorted.
fn reference(ctx: &Ctx) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(&ctx.reference)
        .map_err(|e| format!("reference {}: {e}", ctx.reference.display()))?;
    let size = if ctx.smoke { "smoke" } else { "full" };
    let mut out: Vec<(String, String)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(s), Some(hex), Some(kernel)) if s == size => {
                    Some((kernel.to_string(), hex.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    out.sort();
    if out.is_empty() {
        return Err(format!(
            "reference {} has no {size} digests",
            ctx.reference.display()
        ));
    }
    Ok(out)
}

fn check(pass: &Pass, want: &[(String, String)]) -> Result<(), String> {
    if pass.digests == want {
        return Ok(());
    }
    let bad: Vec<&str> = want
        .iter()
        .filter(|w| !pass.digests.contains(w))
        .map(|(k, _)| k.as_str())
        .collect();
    Err(format!(
        "traced-faulted reports/trace differ from the reference for {bad:?}"
    ))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let want = reference(ctx)?;
    let mut o = Outcome::default();
    if ctx.trace {
        return traced(ctx, &want, o);
    }
    let (mut passes, mut setup) = (Vec::new(), Vec::new());
    // Every pass is a fresh process, so none is a warm-up; two at least,
    // more while the budget allows.
    let (mut last, mut failed) = (0.0, 0);
    while ctx.more(passes.len(), failed, 2, last) {
        match spawn_pass(ctx, false, None) {
            Ok(p) => {
                last = p.sample.wall_s;
                o.op(check(&p, &want));
                passes.push(p.sample);
                setup.push(p.setup_s);
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

/// The traced run: one untraced pass, one with spans, one plain loop.
fn traced(ctx: &Ctx, want: &[(String, String)], mut o: Outcome) -> Result<Outcome, String> {
    let spans_path = ctx
        .out_dir
        .join(format!("spans-traced-faulted-seed{}.jsonl", ctx.seed));
    let _ = std::fs::remove_file(&spans_path);
    let untraced = spawn_pass(ctx, false, None);
    let spanned = spawn_pass(ctx, false, Some(&spans_path));
    let plain = spawn_pass(ctx, true, Some(&spans_path));
    for p in [&untraced, &spanned] {
        o.op(p
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|p| check(p, want)));
    }
    o.op(plain.as_ref().map(|_| ()).map_err(Clone::clone));
    if let (Ok(u), Ok(s), Ok(p)) = (&untraced, &spanned, &plain) {
        for (name, v) in &s.layers {
            if let Some((n, _)) = crate::metrics::PER_LAYER.iter().find(|(n, _)| n == name) {
                o.set(n, *v);
            }
        }
        o.set("core.slowdown_vs_plain", s.sample.wall_s / p.sample.wall_s);
        o.set(
            "bench.span_overhead_pct",
            (s.sample.wall_s / u.sample.wall_s - 1.0) * 100.0,
        );
    }
    Ok(o)
}

/// `--record-reference`: run one pass per size and write the digests.
pub fn record_reference(ctx: &Ctx) -> Result<(), String> {
    let mut text = String::from(
        "# traced-faulted digests: <size> <fnv1a64 of the three RunReport JSONs and the Chrome \
         trace> <kernel>\n# Written by `perfbench --record-reference`; fault seed 7, rate 0.5.\n",
    );
    for smoke in [false, true] {
        let r = sim_loop(smoke, true, 0, None);
        if let Some(e) = r.errors.first() {
            return Err(e.clone());
        }
        let size = if smoke { "smoke" } else { "full" };
        for (kernel, digest) in &r.digests {
            text.push_str(&format!("{size} {digest:016x} {kernel}\n"));
        }
    }
    std::fs::write(&ctx.reference, text).map_err(|e| format!("{e}"))
}
