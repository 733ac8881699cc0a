//! Sweep jobs for the supervised harness behind `repro`.
//!
//! Every unit of sweep work — one kernel measured across the three study
//! modes, or one experiment regenerated — is packaged as a
//! [`pim_harness::Job`] so the repro CLI gets panic isolation, watchdog
//! supervision, retry/quarantine policy and journal-based resume for
//! free. Jobs communicate through their payload *strings*, a JSON array
//! of [`ModeShard`] records (one per study mode the job ran): a result
//! restored from a resume journal is byte-identical to one computed
//! in-process, which is what makes resumed scorecards and attributions
//! bit-identical to uninterrupted ones.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pim_core::{
    DmpimError, ExecutionMode, JsonValue, Kernel, OffloadEngine, OpMix, PimTargetKind,
    ResiliencePolicy, RunReport, SimContext, Tracer, Watchdog,
};
use pim_harness::{Harness, HarnessError, HarnessPolicy, Job, SweepReport};
use pim_obs::ExplainRecord;
use pim_vp9::driver::{MotionEstimationKernel, SubPixelInterpolationKernel};

use crate::scorecard::{
    entries_from_metrics, metrics_from_records, KernelMetrics, ModeShard, ScorecardEntry,
};

/// A capture-free kernel constructor. Plain `fn` pointers (not boxed
/// closures) so a catalog entry is trivially `Send + Sync` and can be
/// moved into retried job attempts.
pub type KernelFactory = fn() -> Box<dyn Kernel>;

/// Every PIM-target kernel with its workload: name, paper target, and a
/// factory building a fresh kernel instance per job attempt. `smoke`
/// swaps the paper-scale inputs for two small kernels (tests and the
/// harness selftest).
pub fn kernel_catalog(smoke: bool) -> Vec<(&'static str, PimTargetKind, KernelFactory)> {
    use pim_chrome::lzo::{CompressionKernel, DecompressionKernel};
    use pim_chrome::tiling::TextureTilingKernel;
    use pim_chrome::ColorBlittingKernel;
    use pim_vp9::driver::{
        DeblockingFilterKernel, MotionEstimationKernel, SubPixelInterpolationKernel,
    };
    if smoke {
        return vec![
            ("texture tiling", PimTargetKind::TextureTiling, || {
                Box::new(TextureTilingKernel::new(128, 128, 1))
            }),
            ("color blitting", PimTargetKind::ColorBlitting, || {
                Box::new(ColorBlittingKernel::new(vec![32, 64], 128, 1))
            }),
        ];
    }
    vec![
        ("texture tiling", PimTargetKind::TextureTiling, || {
            Box::new(TextureTilingKernel::paper_input())
        }),
        ("color blitting", PimTargetKind::ColorBlitting, || {
            Box::new(ColorBlittingKernel::paper_input())
        }),
        ("compression", PimTargetKind::Compression, || Box::new(CompressionKernel::paper_input())),
        ("decompression", PimTargetKind::Compression, || {
            Box::new(DecompressionKernel::paper_input())
        }),
        ("packing", PimTargetKind::Packing, || {
            Box::new(pim_tfmobile::pack::PackingKernel::paper_input())
        }),
        ("quantization", PimTargetKind::Quantization, || {
            Box::new(pim_tfmobile::quantize::QuantizationKernel::paper_input())
        }),
        ("sub-pixel interpolation", PimTargetKind::SubPixelInterpolation, || {
            Box::new(SubPixelInterpolationKernel::paper_input())
        }),
        ("deblocking filter", PimTargetKind::DeblockingFilter, || {
            Box::new(DeblockingFilterKernel::paper_input())
        }),
        ("motion estimation", PimTargetKind::MotionEstimation, || {
            Box::new(MotionEstimationKernel::paper_input())
        }),
    ]
}

/// Run one kernel instance through the three study modes, in
/// [`ExecutionMode::ALL`] order (CPU-only, PIM-Core, PIM-Acc).
fn run_modes(
    factory: KernelFactory,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<[RunReport; 3], DmpimError> {
    let engine = OffloadEngine::new().with_tracer(tracer).with_watchdog(watchdog);
    let mut kernel = factory();
    let mut run = |mode| engine.try_run(kernel.as_mut(), mode);
    Ok([run(ExecutionMode::CpuOnly)?, run(ExecutionMode::PimCore)?, run(ExecutionMode::PimAcc)?])
}

/// Encode per-mode records as one job payload: a JSON array holding one
/// record per study mode the job ran.
fn payload(records: impl IntoIterator<Item = ModeShard>) -> String {
    records.into_iter().fold(JsonValue::array(), |arr, r| arr.push(r.to_json_value())).render()
}

/// Run one kernel through the three study modes and encode its three
/// records as a sweep job payload.
fn measure(
    name: &'static str,
    kind: PimTargetKind,
    factory: KernelFactory,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let reports = run_modes(factory, tracer, watchdog)?;
    Ok(payload(reports.iter().map(|r| ModeShard::from_report(name, kind, r))))
}

/// Measure one catalog kernel by name through the three study modes —
/// the `pim-serve` resolver entry point for `kernel:<name>` specs. The
/// result is the [`KernelMetrics::to_line`] line.
///
/// # Errors
///
/// `DmpimError::UnknownExperiment` for a name not in the catalog;
/// otherwise whatever the simulation itself raises.
pub fn measure_kernel(
    name: &str,
    smoke: bool,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let (n, kind, factory) = kernel_catalog(smoke)
        .into_iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| DmpimError::UnknownExperiment { id: format!("kernel:{name}") })?;
    let [cpu, core, acc] = run_modes(factory, tracer, watchdog)?;
    Ok(KernelMetrics::from_reports(n, kind, &cpu, &core, &acc).to_line())
}

/// Shared sink for per-attempt wall times. Timing lives *outside* the
/// job payloads and the resume journal on purpose: journal lines (and
/// thus merged [`pim_harness::JobResult`]s) stay bit-identical across
/// runs, while timing — which never is — travels on the side. Every
/// attempt pushes its own entry (retried and failed attempts included),
/// so a retried job's abandoned wall time is visible instead of silently
/// replaced. Jobs restored from a resume journal simply have no entry.
pub type JobTimings = Arc<Mutex<Vec<(String, u64)>>>;

/// Wrap a job body so each attempt's wall time lands in `timings` —
/// success or failure — under the job's name.
pub fn timed_job<F>(name: impl Into<String>, timings: Option<JobTimings>, body: F) -> Job
where
    F: Fn(&pim_harness::JobCtx) -> Result<String, DmpimError> + Send + Sync + 'static,
{
    let name = name.into();
    Job::new(name.clone(), move |ctx| {
        let t0 = Instant::now();
        let out = body(ctx);
        if let Some(sink) = &timings {
            if let Ok(mut v) = sink.lock() {
                v.push((name.clone(), t0.elapsed().as_millis() as u64));
            }
        }
        out
    })
}

/// Kernels whose three study modes run as separate harness shard jobs
/// (the two big video kernels: together ~80% of an unsharded sweep's
/// wall time, so mode-level shards are what lets `--jobs N` shorten the
/// critical path). Their compute caches are shared across the shards,
/// so the pure pixel work still happens once per sweep.
pub const SHARDED_KERNELS: [&str; 2] = ["sub-pixel interpolation", "motion estimation"];

/// Job id of one study-mode shard: `<kernel>@<mode label>`.
pub fn shard_job_id(name: &str, mode: ExecutionMode) -> String {
    format!("{name}@{}", mode.label())
}

/// Measure one study mode of `kernel` and encode its record as a sweep
/// job payload.
fn measure_mode(
    name: &str,
    kind: PimTargetKind,
    kernel: &mut dyn Kernel,
    mode: ExecutionMode,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let engine = OffloadEngine::new().with_tracer(tracer).with_watchdog(watchdog);
    let report = engine.try_run(kernel, mode)?;
    Ok(payload([ModeShard::from_report(name, kind, &report)]))
}

/// Three shard jobs (one per study mode) for a kernel whose clones share
/// a compute cache. Every shard (and every retried attempt) clones the
/// same prototype, so whichever runs first computes the pure pixel work
/// and the rest reuse it — the simulated replay stays per-mode and is
/// bit-identical to running the three modes inside one job.
fn sharded_kernel_jobs<K>(
    name: &'static str,
    kind: PimTargetKind,
    proto: K,
    timings: Option<JobTimings>,
) -> Vec<Job>
where
    K: Kernel + Clone + Send + Sync + 'static,
{
    ExecutionMode::ALL
        .into_iter()
        .map(|mode| {
            let proto = proto.clone();
            timed_job(shard_job_id(name, mode), timings.clone(), move |ctx| {
                let mut kernel = proto.clone();
                measure_mode(name, kind, &mut kernel, mode, &ctx.tracer, ctx.watchdog)
            })
        })
        .collect()
}

fn metrics_jobs_timed(smoke: bool, timings: Option<JobTimings>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (name, kind, factory) in kernel_catalog(smoke) {
        match name {
            "sub-pixel interpolation" => jobs.extend(sharded_kernel_jobs(
                name,
                kind,
                SubPixelInterpolationKernel::paper_input(),
                timings.clone(),
            )),
            "motion estimation" => jobs.extend(sharded_kernel_jobs(
                name,
                kind,
                MotionEstimationKernel::paper_input(),
                timings.clone(),
            )),
            _ => jobs.push(timed_job(name, timings.clone(), move |ctx| {
                measure(name, kind, factory, &ctx.tracer, ctx.watchdog)
            })),
        }
    }
    jobs
}

/// Read the per-mode records out of sweep job payloads, in catalog
/// (`order`) × study-mode order, and name (`kernel@mode`) each catalog
/// kernel × mode that has no readable record: its job failed, or its
/// payload does not parse. Keying by catalog order (not result order)
/// makes the merge independent of worker scheduling.
pub fn merge_records<'a>(
    order: &[&str],
    payloads: impl IntoIterator<Item = &'a str>,
) -> (Vec<ModeShard>, Vec<String>) {
    let mut read = Vec::new();
    for p in payloads {
        if let Ok(JsonValue::Arr(items)) = JsonValue::parse(p) {
            read.extend(items.iter().filter_map(ModeShard::from_json_value));
        }
    }
    let (mut records, mut missing) = (Vec::new(), Vec::new());
    for &name in order {
        for mode in ExecutionMode::ALL {
            match read.iter().position(|r| r.is(name, mode)) {
                Some(i) => records.push(read.swap_remove(i)),
                None => missing.push(shard_job_id(name, mode)),
            }
        }
    }
    (records, missing)
}

/// Fold sweep job payloads into kernel metrics, in catalog (`order`)
/// position. A kernel contributes only when all three of its mode
/// records are readable: a failed job degrades to a missing kernel,
/// whether it ran one mode or three.
pub fn merge_metric_lines<'a>(
    order: &[&str],
    lines: impl IntoIterator<Item = &'a str>,
) -> Vec<KernelMetrics> {
    metrics_from_records(&merge_records(order, lines).0)
}

/// Fold per-attempt timings into per-job `(id, total_ms, attempts)`
/// aggregates, preserving first-seen order.
pub fn aggregate_timings(timings: &[(String, u64)]) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = Vec::new();
    for (name, ms) in timings {
        if let Some(slot) = out.iter_mut().find(|(n, ..)| n == name) {
            slot.1 += ms;
            slot.2 += 1;
        } else {
            out.push((name.clone(), *ms, 1));
        }
    }
    out
}

/// One measurement job per catalog kernel.
pub fn metrics_jobs(smoke: bool) -> Vec<Job> {
    metrics_jobs_timed(smoke, None)
}

/// Compute the scorecard measurements in-process (no journal, current
/// thread), straight from the run reports: the reference a harness or
/// resumed sweep's merged records must match bit for bit.
pub(crate) fn collect_metrics(smoke: bool) -> Vec<KernelMetrics> {
    let tracer = Tracer::default();
    kernel_catalog(smoke)
        .into_iter()
        .filter_map(|(name, kind, factory)| {
            let [cpu, core, acc] = run_modes(factory, &tracer, Watchdog::unlimited()).ok()?;
            Some(KernelMetrics::from_reports(name, kind, &cpu, &core, &acc))
        })
        .collect()
}

/// What [`scorecard_sweep`] produced.
pub struct SweepOutcome {
    /// Every readable per-mode record, in catalog × study-mode order.
    pub records: Vec<ModeShard>,
    /// Each catalog kernel × mode with no readable record, as
    /// `kernel@mode` (see [`merge_records`]).
    pub missing: Vec<String>,
    /// The harness failure report.
    pub report: SweepReport,
    /// Per-attempt wall times in `(id, ms)` form.
    pub timings: Vec<(String, u64)>,
}

impl SweepOutcome {
    /// The scorecard entries the records fold into.
    pub fn entries(&self) -> Vec<ScorecardEntry> {
        entries_from_metrics(&metrics_from_records(&self.records))
    }

    /// The attribution records `repro --explain` renders, in catalog ×
    /// study-mode order.
    pub fn explain_records(&self) -> Vec<ExplainRecord> {
        self.records.iter().map(|r| r.record.clone()).collect()
    }
}

/// Run the sweep behind both `repro --json` and `repro --explain`
/// through the harness: the [`metrics_jobs`], optional journal/resume,
/// merged back into per-mode records plus the harness's failure report.
/// Jobs whose measurement failed (panic, timeout, invalid config) are
/// reported in the [`SweepReport`], and their records are
/// [`SweepOutcome::missing`].
pub fn scorecard_sweep(
    smoke: bool,
    policy: HarnessPolicy,
    journal: Option<&Path>,
    resume: bool,
) -> Result<SweepOutcome, HarnessError> {
    let mut harness = Harness::new(policy);
    if let Some(path) = journal {
        harness = if resume { harness.resume_from(path) } else { harness.with_journal(path) };
    }
    let timings: JobTimings = Arc::new(Mutex::new(Vec::new()));
    let report = harness.run(metrics_jobs_timed(smoke, Some(timings.clone())))?;
    let order: Vec<&str> = kernel_catalog(smoke).into_iter().map(|(n, ..)| n).collect();
    let (records, missing) =
        merge_records(&order, report.results.iter().filter_map(|r| r.output.as_deref()));
    let timings = timings.lock().map(|v| v.clone()).unwrap_or_default();
    Ok(SweepOutcome { records, missing, report, timings })
}

/// One job per experiment id, for the default `repro` run. Each job's
/// payload is the experiment's full text report.
pub fn experiment_jobs() -> Vec<Job> {
    crate::EXPERIMENTS
        .iter()
        .map(|&id| Job::new(id, move |_ctx| crate::run_experiment(id)))
        .collect()
}

/// A deliberately hung simulation: spins until a watchdog poisons the
/// context. Unsupervised, this kernel never terminates — which is
/// exactly what the harness selftest needs to prove supervision works.
struct RunawayKernel;

impl Kernel for RunawayKernel {
    fn name(&self) -> &'static str {
        "runaway"
    }

    fn run(&mut self, ctx: &mut SimContext) {
        while !ctx.is_poisoned() {
            ctx.ops(OpMix::scalar(64));
        }
    }
}

/// The `repro --selftest-harness` sweep: two real kernel measurements
/// plus one panicking job and one hung simulation. Returns the report
/// and any deviations from the expected disposition (empty = pass).
pub fn selftest(workers: usize) -> Result<(SweepReport, Vec<String>), HarnessError> {
    let policy = HarnessPolicy {
        workers: workers.max(1),
        max_retries: 1,
        quarantine_strikes: 2,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(8),
        wall_deadline: None,
        // Generous enough for the smoke kernels, but the runaway kernel
        // burns host events forever and trips it within milliseconds.
        watchdog: Watchdog::new(u64::MAX, 2_000_000),
        ..Default::default()
    };
    let mut jobs = metrics_jobs(true);
    jobs.push(Job::new("panicker", |_ctx| -> Result<String, DmpimError> {
        panic!("injected selftest panic");
    }));
    jobs.push(Job::new("runaway", |ctx| {
        let engine = OffloadEngine::new().with_watchdog(ctx.watchdog).with_resilience(
            ResiliencePolicy { max_retries: 0, allow_fallback: false, ..Default::default() },
        );
        let mut kernel = RunawayKernel;
        engine.try_run(&mut kernel, ExecutionMode::CpuOnly)?;
        Ok("unreachable".to_string())
    }));
    let report = Harness::new(policy).run(jobs)?;

    let summary = report.summary();
    let mut mismatches = Vec::new();
    for (what, got, want) in [
        ("succeeded", summary.succeeded, 2),
        ("failed", summary.failed, 1),
        ("quarantined", summary.quarantined, 1),
    ] {
        if got != want {
            mismatches.push(format!("expected {want} {what} job(s), got {got}"));
        }
    }
    for (label, want) in [("panic", 1), ("watchdog-timeout", 1)] {
        let got = summary.taxonomy.get(label).copied().unwrap_or(0);
        if got != want {
            mismatches.push(format!("expected taxonomy {label}={want}, got {got}"));
        }
    }
    Ok((report, mismatches))
}

#[cfg(test)]
mod tests {
    use pim_harness::JobStatus;

    use super::*;
    use crate::explain::{mode_slug, record_from_report};

    #[test]
    fn metrics_only_tracer_books_exactly_the_full_tracers_metrics() {
        // The smoke catalog in every mode under the 0.5-rate fault plan,
        // and under a plan whose failed vaults force a fallback.
        use pim_core::FaultConfig;
        let fail_vaults =
            FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let plans = [(FaultConfig::with_rate(0.5), 7), (fail_vaults, 9)];
        let run = |tracer: &Tracer| {
            for (_, _, factory) in kernel_catalog(true) {
                for mode in ExecutionMode::ALL {
                    for (config, seed) in plans {
                        let engine = OffloadEngine::new().with_faults(config, seed);
                        engine.with_tracer(tracer).run(&mut *factory(), mode);
                    }
                }
            }
        };
        let (full, only) = (Tracer::new(), Tracer::metrics_only());
        run(&full);
        run(&only);
        let m = only.metrics();
        // Booked beside events on a full tracer; each must be exercised.
        for name in ["offload.fallbacks", "offload.retries", "faults.tripped"] {
            assert!(m.counters.get(name).is_some_and(|&n| n > 0), "{name}: {:?}", m.counters);
        }
        assert_eq!(m, full.metrics());
        assert_eq!((only.event_count(), only.tracks().len(), only.dropped_events()), (0, 0, 0));
        assert_eq!(only.chrome_trace(), Tracer::disabled().chrome_trace());
    }

    #[test]
    fn catalog_covers_all_nine_targets_at_paper_scale() {
        assert_eq!(kernel_catalog(false).len(), 9);
        assert_eq!(kernel_catalog(true).len(), 2);
        // Seven unsharded kernels plus three mode shards for each of the
        // two sharded ones.
        assert_eq!(metrics_jobs(false).len(), 13);
        let ids: Vec<String> = metrics_jobs(false).iter().map(|j| j.id.clone()).collect();
        for name in SHARDED_KERNELS {
            for mode in ExecutionMode::ALL {
                assert!(ids.contains(&shard_job_id(name, mode)), "{name}/{mode:?}");
            }
            assert!(!ids.contains(&name.to_string()), "{name} must not also run unsharded");
        }
    }

    #[test]
    fn sharded_mode_jobs_merge_bit_identical_to_one_job_measurement() {
        // Unsharded reference: all three modes measured inside one job,
        // exactly as `measure` does.
        let tracer = Tracer::default();
        let engine = OffloadEngine::new().with_tracer(&tracer);
        let mut k = MotionEstimationKernel::small();
        let reports = ExecutionMode::ALL.map(|mode| engine.try_run(&mut k, mode).unwrap());
        let [cpu, core, acc] = &reports;
        let want = KernelMetrics::from_reports(
            "motion estimation",
            pim_core::PimTargetKind::MotionEstimation,
            cpu,
            core,
            acc,
        );
        let want_records: Vec<String> = reports
            .iter()
            .map(|r| record_from_report("motion estimation", r).to_json_value().render())
            .collect();

        for workers in [1, 3] {
            let jobs = sharded_kernel_jobs(
                "motion estimation",
                pim_core::PimTargetKind::MotionEstimation,
                MotionEstimationKernel::small(),
                None,
            );
            let policy = HarnessPolicy { workers, ..Default::default() };
            let report = Harness::new(policy).run(jobs).unwrap();
            assert!(report.all_ok(), "{:?}", report.summary());
            let payloads = || report.results.iter().filter_map(|r| r.output.as_deref());
            let (records, missing) = merge_records(&["motion estimation"], payloads());
            assert!(missing.is_empty(), "workers={workers}: {missing:?}");
            let got: Vec<String> =
                records.iter().map(|r| r.record.to_json_value().render()).collect();
            assert_eq!(got, want_records, "workers={workers}");
            let merged = merge_metric_lines(&["motion estimation"], payloads());
            assert_eq!(merged.len(), 1, "workers={workers}");
            let m = &merged[0];
            assert_eq!(m.name, want.name);
            assert_eq!(m.dm.to_bits(), want.dm.to_bits(), "workers={workers}");
            assert_eq!(m.core_cut.to_bits(), want.core_cut.to_bits(), "workers={workers}");
            assert_eq!(m.acc_cut.to_bits(), want.acc_cut.to_bits(), "workers={workers}");
            assert_eq!(m.acc_speed.to_bits(), want.acc_speed.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn merge_requires_all_three_shards_and_keeps_catalog_order() {
        let record = |name: &str, mode: ExecutionMode| ModeShard {
            kind: pim_core::PimTargetKind::MotionEstimation,
            total_pj: 100.0,
            dm: 0.5,
            record: ExplainRecord {
                kernel: name.to_string(),
                mode: mode_slug(mode).to_string(),
                runtime_ps: 10,
                cycle_ps: [1.0; 6],
                energy_pj: [1.0; 6],
                row_hit_rate: 0.5,
                mpki: 1.0,
                bytes_moved: 64,
            },
        };
        let shard = |name, mode| payload([record(name, mode)]);
        // Two of three modes: the kernel is absent, like a failed job,
        // and the missing mode is named.
        let partial = [shard("me", ExecutionMode::CpuOnly), shard("me", ExecutionMode::PimAcc)];
        assert!(merge_metric_lines(&["me"], partial.iter().map(String::as_str)).is_empty());
        let (_, missing) = merge_records(&["me"], partial.iter().map(String::as_str));
        assert_eq!(missing, ["me@PIM-Core"]);
        // Shards plus a whole kernel's payload and an unreadable one,
        // delivered out of catalog order: the output follows the catalog,
        // not the result stream.
        let lines = [
            shard("me", ExecutionMode::PimAcc),
            payload(ExecutionMode::ALL.map(|mode| record("tiling", mode))),
            "tiling|texture tiling|0.8|0.5|0.6|1.4".to_string(),
            shard("me", ExecutionMode::CpuOnly),
            shard("me", ExecutionMode::PimCore),
        ];
        let merged = merge_metric_lines(&["tiling", "me"], lines.iter().map(String::as_str));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "tiling");
        assert_eq!(merged[1].name, "me");
        assert_eq!(merged[1].acc_speed, 1.0);
        let (records, missing) = merge_records(&["tiling", "me"], lines.iter().map(String::as_str));
        assert!(missing.is_empty(), "{missing:?}");
        let order: Vec<(&str, &str)> =
            records.iter().map(|r| (r.record.kernel.as_str(), r.record.mode.as_str())).collect();
        assert_eq!(
            order,
            [
                ("tiling", "cpu-only"),
                ("tiling", "pim-core"),
                ("tiling", "pim-acc"),
                ("me", "cpu-only"),
                ("me", "pim-core"),
                ("me", "pim-acc"),
            ]
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let tracer = Tracer::default();
        for (name, kind, _) in kernel_catalog(true) {
            let line = measure_kernel(name, true, &tracer, Watchdog::unlimited()).unwrap();
            let m = KernelMetrics::parse(&line).expect("line parses");
            assert_eq!(m.name, name);
            assert_eq!(m.kind, kind);
            assert_eq!(m.to_line(), line, "shortest-roundtrip f64 must be stable");
        }
    }

    #[test]
    fn harness_sweep_matches_in_process_scorecard() {
        let out =
            scorecard_sweep(true, HarnessPolicy { workers: 2, ..Default::default() }, None, false)
                .unwrap();
        assert!(out.report.all_ok(), "{:?}", out.report.summary());
        assert!(out.missing.is_empty(), "{:?}", out.missing);
        assert_eq!(out.timings.len(), kernel_catalog(true).len(), "one timing per fresh job");
        let entries = out.entries();
        let direct = crate::scorecard::scorecard(true);
        assert_eq!(entries.len(), direct.len());
        for (a, b) in entries.iter().zip(&direct) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.quantity, b.quantity);
            assert_eq!(a.measured.to_bits(), b.measured.to_bits(), "{}/{}", a.id, a.quantity);
        }
    }

    /// A fresh journal path under the system temp dir.
    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pim-bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.jsonl")
    }

    #[test]
    fn resumed_sweep_gives_the_same_entries_and_attribution() {
        let path = journal_path("resume");
        let whole = scorecard_sweep(true, HarnessPolicy::default(), Some(&path), false).unwrap();
        assert!(whole.report.all_ok() && whole.missing.is_empty(), "{:?}", whole.missing);
        // Keep the header and the first record, as a kill after the first
        // job would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        let resumed = scorecard_sweep(true, HarnessPolicy::default(), Some(&path), true).unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        assert_eq!(resumed.report.resumed, 1);
        assert!(resumed.report.all_ok() && resumed.missing.is_empty(), "{:?}", resumed.missing);
        let bits = |out: &SweepOutcome| -> Vec<(&str, &str, u64)> {
            out.entries().iter().map(|e| (e.id, e.quantity, e.measured.to_bits())).collect()
        };
        assert_eq!(bits(&resumed), bits(&whole));
        let rendered = |out: &SweepOutcome| -> Vec<String> {
            out.explain_records().iter().map(|r| r.to_json_value().render()).collect()
        };
        assert_eq!(rendered(&resumed), rendered(&whole));
        assert_eq!(rendered(&whole).len(), 3 * kernel_catalog(true).len());
    }

    #[test]
    fn resumed_sweep_with_an_unreadable_record_fails_its_gate_naming_it() {
        let path = journal_path("unreadable");
        scorecard_sweep(true, HarnessPolicy::default(), Some(&path), false).unwrap();
        // Edit the kind label of the first texture-tiling record (its
        // CPU-Only run) to one no record reads back.
        let text = std::fs::read_to_string(&path).unwrap();
        let edited =
            text.replacen(r#"\"kind\":\"texture tiling\""#, r#"\"kind\":\"texture-tiling\""#, 1);
        assert_ne!(edited, text, "the journal holds the texture-tiling records");
        std::fs::write(&path, edited).unwrap();
        let out = scorecard_sweep(true, HarnessPolicy::default(), Some(&path), true).unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        assert_eq!(out.report.resumed, kernel_catalog(true).len(), "both jobs restored");
        assert_eq!(out.missing, ["texture tiling@CPU-Only"]);
        let summary = out.report.summary();
        assert!(summary.all_ok(), "the harness itself saw no failure");
        let failures =
            crate::scorecard::gate_failures(&out.entries(), &out.missing, Some(&summary));
        assert_eq!(failures, ["sweep: no readable record for texture tiling@CPU-Only"]);
    }

    #[test]
    fn timings_record_every_attempt_including_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use pim_core::FaultKind;

        let timings: JobTimings = Arc::new(Mutex::new(Vec::new()));
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let job = timed_job("flaky", Some(Arc::clone(&timings)), move |_ctx| {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 1 })
            } else {
                Ok("done".to_string())
            }
        });
        let policy = HarnessPolicy {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let report = Harness::new(policy).run(vec![job]).unwrap();
        assert!(report.all_ok(), "{:?}", report.summary());
        let v = timings.lock().unwrap();
        assert_eq!(v.len(), 2, "one timing entry per attempt, failures included: {v:?}");
        assert!(v.iter().all(|(n, _)| n == "flaky"), "{v:?}");
        let agg = aggregate_timings(&v);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].0, "flaky");
        assert_eq!(agg[0].2, 2, "aggregate counts both attempts");
    }

    #[test]
    fn selftest_isolates_panic_and_quarantines_runaway() {
        let (report, mismatches) = selftest(2).unwrap();
        assert!(mismatches.is_empty(), "{mismatches:?}");
        let runaway = report.results.iter().find(|r| r.id == "runaway").unwrap();
        assert_eq!(runaway.status, JobStatus::Quarantined);
        assert_eq!(runaway.attempts, 2, "two timeout strikes then quarantine");
        let panicker = report.results.iter().find(|r| r.id == "panicker").unwrap();
        assert_eq!(panicker.status, JobStatus::Failed);
        assert_eq!(panicker.attempts, 1, "panics are deterministic: no retry");
    }
}
