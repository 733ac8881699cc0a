//! The offload engine: run a kernel as CPU-only, PIM-core or PIM-accelerator.

use std::collections::BTreeMap;
use std::fmt;

use pim_cpusim::EngineTiming;
use pim_energy::{EnergyBreakdown, COMPONENTS};
use pim_faults::{DmpimError, FaultConfig, FaultPlan, FaultStats, Watchdog};
use pim_memsim::{Activity, Port, Ps};
use pim_trace::{JsonValue, Tracer};

use crate::context::{CostBreakdown, SimContext, TagStats};
use crate::kernel::Kernel;
use crate::platform::Platform;

/// Ledger tag that carries the energy/time of abandoned (faulted) attempts
/// and retry backoff in a resilient run's [`RunReport::by_tag`].
pub const FAULT_RECOVERY_TAG: &str = "fault_recovery";

/// Where a kernel executes (the x-axis of Figures 18–20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// On the SoC CPU against the LPDDR3 baseline (the paper's `CPU-Only`).
    CpuOnly,
    /// On the in-memory general-purpose core (`PIM-Core`).
    PimCore,
    /// On the fixed-function in-memory accelerator (`PIM-Acc`).
    PimAcc,
}

impl ExecutionMode {
    /// All modes in the paper's presentation order.
    pub const ALL: [ExecutionMode; 3] =
        [ExecutionMode::CpuOnly, ExecutionMode::PimCore, ExecutionMode::PimAcc];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::CpuOnly => "CPU-Only",
            ExecutionMode::PimCore => "PIM-Core",
            ExecutionMode::PimAcc => "PIM-Acc",
        }
    }

    /// The degradation chain starting at this mode: each entry is tried in
    /// order when the previous one fails persistently
    /// (`PimAcc → PimCore → CpuOnly`).
    pub fn fallback_chain(self) -> &'static [ExecutionMode] {
        match self {
            ExecutionMode::CpuOnly => &[ExecutionMode::CpuOnly],
            ExecutionMode::PimCore => &[ExecutionMode::PimCore, ExecutionMode::CpuOnly],
            ExecutionMode::PimAcc => {
                &[ExecutionMode::PimAcc, ExecutionMode::PimCore, ExecutionMode::CpuOnly]
            }
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a resilient run deviated from its requested execution mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Degradation {
    /// Retry attempts after transient faults (across all modes tried).
    pub retries: u32,
    /// Mode downgrades taken (`PimAcc → PimCore` counts one).
    pub fallbacks: u32,
    /// Simulated time spent backing off between retries, in ps.
    pub backoff_ps: Ps,
    /// Simulated time consumed by abandoned (faulted) attempts, in ps.
    pub abandoned_ps: Ps,
    /// Energy consumed by abandoned attempts, in pJ.
    pub abandoned_pj: f64,
    /// Everything the fault plan injected across all attempts.
    pub faults: FaultStats,
    /// Terminal error, set only when even the last mode in the fallback
    /// chain failed (the report then holds the failed attempt's partials).
    pub error: Option<DmpimError>,
}

impl Degradation {
    /// Whether the run deviated from the ideal path at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.fallbacks == 0 && self.error.is_none()
    }

    /// The record as a hand-rolled [`JsonValue`] (stable field order, no
    /// external serialization dependency).
    pub fn to_json_value(&self) -> JsonValue {
        let f = &self.faults;
        let faults = JsonValue::object()
            .set("bit_flips", f.bit_flips)
            .set("corrected", f.corrected)
            .set("uncorrectable", f.uncorrectable)
            .set("silent", f.silent)
            .set("unavail_hits", f.unavail_hits)
            .set("vault_hits", f.vault_hits)
            .set("throttled_ps", f.throttled_ps);
        let o = JsonValue::object()
            .set("retries", u64::from(self.retries))
            .set("fallbacks", u64::from(self.fallbacks))
            .set("backoff_ps", self.backoff_ps)
            .set("abandoned_ps", self.abandoned_ps)
            .set("abandoned_pj", self.abandoned_pj)
            .set("faults", faults);
        match &self.error {
            Some(e) => o.set("error", e.to_string()),
            None => o.set("error", JsonValue::Null),
        }
    }

    /// Compact JSON rendering of [`Self::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Everything measured about one kernel execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Kernel name.
    pub kernel: &'static str,
    /// Mode the caller requested.
    pub mode: ExecutionMode,
    /// Mode the kernel actually completed under (differs from `mode` after
    /// a fallback).
    pub executed: ExecutionMode,
    /// End-to-end runtime, in ps (includes abandoned attempts and backoff
    /// for resilient runs).
    pub runtime_ps: Ps,
    /// Six-component energy breakdown.
    pub energy: EnergyBreakdown,
    /// Total memory activity.
    pub activity: Activity,
    /// Per-function-tag ledger.
    pub by_tag: BTreeMap<&'static str, TagStats>,
    /// Retired operations.
    pub instructions: u64,
    /// LLC (or PIM-L1) misses per kilo-instruction.
    pub mpki: f64,
    /// Simulated-time attribution across the six model layers (includes
    /// abandoned attempts on resilient runs; backoff idles unattributed).
    pub cost: CostBreakdown,
    /// Resilience record; `None` for runs without faults or watchdog.
    pub degradation: Option<Degradation>,
}

impl RunReport {
    /// Runtime in milliseconds.
    pub fn runtime_ms(&self) -> f64 {
        self.runtime_ps as f64 / 1e9
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_pj() / 1e9
    }

    /// Energy of this run normalized to a baseline run.
    pub fn energy_vs(&self, baseline: &RunReport) -> f64 {
        self.energy.total_pj() / baseline.energy.total_pj()
    }

    /// Speedup of this run relative to a baseline run.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        baseline.runtime_ps as f64 / self.runtime_ps as f64
    }

    /// Whether the run fell back from its requested mode.
    pub fn degraded(&self) -> bool {
        self.executed != self.mode
    }

    /// The report as a hand-rolled [`JsonValue`] (stable field order, no
    /// external serialization dependency).
    pub fn to_json_value(&self) -> JsonValue {
        let mut energy = JsonValue::object();
        for c in COMPONENTS {
            energy = energy.set(c.label(), self.energy.get(c));
        }
        energy = energy
            .set("total_pj", self.energy.total_pj())
            .set("data_movement_fraction", self.energy.data_movement_fraction());
        let a = &self.activity;
        let activity = JsonValue::object()
            .set("l1_accesses", a.l1_accesses)
            .set("llc_accesses", a.llc_accesses)
            .set("scratch_accesses", a.scratch_accesses)
            .set("memctrl_requests", a.memctrl_requests)
            .set("dram_read_bytes", a.dram_read_bytes)
            .set("dram_write_bytes", a.dram_write_bytes)
            .set("internal_bytes", a.internal_bytes)
            .set("offchip_bytes", a.offchip_bytes)
            .set("row_hits", a.row_hits)
            .set("row_misses", a.row_misses);
        let mut by_tag = JsonValue::object();
        for (tag, t) in &self.by_tag {
            by_tag = by_tag.set(
                tag,
                JsonValue::object()
                    .set("time_ps", t.time_ps)
                    .set("ops", t.ops.total())
                    .set("memory_lines", t.memory_lines)
                    .set("energy_pj", t.energy.total_pj())
                    .set("data_movement_fraction", t.data_movement_fraction()),
            );
        }
        let degradation = match &self.degradation {
            Some(d) => d.to_json_value(),
            None => JsonValue::Null,
        };
        let mut cost = JsonValue::object();
        for (label, ps) in CostBreakdown::LABELS.iter().zip(self.cost.as_array()) {
            cost = cost.set(label, ps);
        }
        cost = cost.set("total_ps", self.cost.total_ps());
        JsonValue::object()
            .set("kernel", self.kernel)
            .set("mode", self.mode.label())
            .set("executed", self.executed.label())
            .set("runtime_ps", self.runtime_ps)
            .set("runtime_ms", self.runtime_ms())
            .set("instructions", self.instructions)
            .set("mpki", self.mpki)
            .set("energy", energy)
            .set("activity", activity)
            .set("cost_ps", cost)
            .set("by_tag", by_tag)
            .set("degradation", degradation)
    }

    /// Compact JSON rendering of [`Self::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Retry/fallback policy of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries (after the first attempt) per mode for transient faults.
    pub max_retries: u32,
    /// First backoff, in simulated ps; doubles (`backoff_mult`) per retry.
    pub backoff_ps: Ps,
    /// Exponential backoff multiplier.
    pub backoff_mult: u32,
    /// Whether persistent failure may fall back down the mode chain; when
    /// `false` the requested mode is the only one tried.
    pub allow_fallback: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self { max_retries: 3, backoff_ps: 10_000_000, backoff_mult: 2, allow_fallback: true }
    }
}

impl ResiliencePolicy {
    /// Backoff before retry number `retry` (1-based), in ps.
    pub fn backoff_for(&self, retry: u32) -> Ps {
        let mult = (self.backoff_mult.max(1) as u64).saturating_pow(retry.saturating_sub(1));
        self.backoff_ps.saturating_mul(mult)
    }
}

/// Runs kernels under the three execution modes of the study.
///
/// `CpuOnly` executes on [`Platform::baseline`] (SoC + LPDDR3); the PIM
/// modes execute on [`Platform::pim`] (SoC + 3D-stacked memory) with the
/// §8.2 coherence hand-off charged at the offload boundaries.
#[derive(Debug, Clone, Default)]
pub struct OffloadEngine {
    baseline: Option<Platform>,
    pim: Option<Platform>,
    pim_cluster: Option<usize>,
    faults: Option<(FaultConfig, u64)>,
    watchdog: Watchdog,
    policy: ResiliencePolicy,
    tracer: Tracer,
}

impl OffloadEngine {
    /// Engine with the default Table 1 platforms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the CPU-only platform.
    pub fn with_baseline(mut self, p: Platform) -> Self {
        self.baseline = Some(p);
        self
    }

    /// Override the PIM platform.
    pub fn with_pim_platform(mut self, p: Platform) -> Self {
        self.pim = Some(p);
        self
    }

    /// Run `PimCore` mode as a data-parallel cluster of `n` cores, one per
    /// vault (Table 1). The default is the conservative single core.
    pub fn with_pim_cluster(mut self, n: usize) -> Self {
        self.pim_cluster = Some(n.max(1));
        self
    }

    /// Inject faults from `config` (seeded by `seed`) into every PIM-mode
    /// run. [`FaultConfig::none`] (or any zero config) leaves every number
    /// bit-identical to an engine without faults.
    pub fn with_faults(mut self, config: FaultConfig, seed: u64) -> Self {
        self.faults = Some((config, seed));
        self
    }

    /// Bound every run's progress with `watchdog`.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Override the retry/fallback policy for resilient runs.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a tracer: every attempt becomes a span on its engine's track,
    /// retries/backoff/fallbacks land on a `recovery` track, and each run's
    /// context forwards kernel-phase, memory and fault events. The default
    /// (disabled) tracer keeps the exact zero-overhead legacy path.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Whether runs take the resilient path (faults configured or watchdog
    /// armed) instead of the exact legacy path.
    fn is_resilient(&self) -> bool {
        self.faults.is_some_and(|(c, _)| !c.is_zero()) || self.watchdog.is_armed()
    }

    /// The platform a mode runs on.
    pub fn platform_for(&self, mode: ExecutionMode) -> Platform {
        match mode {
            ExecutionMode::CpuOnly => self.baseline.unwrap_or_else(Platform::baseline),
            _ => self.pim.unwrap_or_else(Platform::pim),
        }
    }

    /// Build the context a mode runs in (exposed for drivers that need to
    /// interleave host work, like the TensorFlow pipeline of Figure 19).
    /// The engine's watchdog is attached; its fault plan is not (attempt
    /// management lives in [`Self::run`]).
    pub fn context_for(&self, mode: ExecutionMode) -> SimContext {
        let platform = self.platform_for(mode);
        let ctx = match mode {
            ExecutionMode::CpuOnly => {
                SimContext::new(platform, EngineTiming::soc_cpu(), Port::Cpu)
            }
            ExecutionMode::PimCore => {
                let timing = match self.pim_cluster {
                    Some(n) if n > 1 => EngineTiming::pim_core_cluster(n),
                    _ => EngineTiming::pim_core(),
                };
                SimContext::new(platform, timing, Port::PimCore)
            }
            ExecutionMode::PimAcc => {
                SimContext::new(platform, EngineTiming::pim_accel(), Port::PimAccel)
            }
        };
        ctx.with_watchdog(self.watchdog)
    }

    /// One attempt: bracket the kernel with offload transitions and run it.
    /// `base_ps` places the attempt on the world (trace) timeline.
    fn attempt(
        &self,
        kernel: &mut dyn Kernel,
        mode: ExecutionMode,
        plan: Option<FaultPlan>,
        base_ps: Ps,
        attempt_no: u64,
    ) -> SimContext {
        let mut ctx = self.context_for(mode).with_tracer(&self.tracer);
        ctx.set_time_base(base_ps);
        if let Some(plan) = plan {
            ctx = ctx.with_fault_plan(plan);
        }
        if mode != ExecutionMode::CpuOnly {
            ctx.offload_transition(kernel.working_set_bytes(), true);
        }
        kernel.run(&mut ctx);
        if mode != ExecutionMode::CpuOnly {
            ctx.offload_transition(kernel.working_set_bytes(), false);
        }
        if self.tracer.events_enabled() {
            let track = self.tracer.track(ctx.timing().label());
            self.tracer.complete_args(
                track,
                kernel.name(),
                base_ps,
                ctx.now_ps(),
                vec![("mode", mode.label().into()), ("attempt", attempt_no.into())],
            );
        }
        ctx
    }

    fn report_from(
        &self,
        kernel_name: &'static str,
        requested: ExecutionMode,
        executed: ExecutionMode,
        ctx: &SimContext,
    ) -> RunReport {
        RunReport {
            kernel: kernel_name,
            mode: requested,
            executed,
            runtime_ps: ctx.now_ps(),
            energy: ctx.total_energy(),
            activity: ctx.total_activity(),
            by_tag: ctx.tag_stats().clone(),
            instructions: ctx.instructions(),
            mpki: ctx.mpki(),
            cost: ctx.cost_breakdown(),
            degradation: None,
        }
    }

    /// Execute `kernel` under `mode` and collect the report.
    ///
    /// Without faults or a watchdog configured this is the exact legacy
    /// simulation path. With them, it is the resilient path: transient
    /// faults are retried with bounded exponential backoff (charged in
    /// simulated time and energy), persistent failure falls down the
    /// `PimAcc → PimCore → CpuOnly` chain, and the deviation is recorded
    /// in [`RunReport::degradation`]. This method never panics on injected
    /// faults; if even the last mode in the chain fails (e.g. watchdog),
    /// the report carries the terminal error in its degradation record
    /// (use [`Self::try_run`] to surface it as a `Result`).
    pub fn run(&self, kernel: &mut dyn Kernel, mode: ExecutionMode) -> RunReport {
        if !self.is_resilient() {
            let ctx = self.attempt(kernel, mode, None, 0, 1);
            let mut report = self.report_from(kernel.name(), mode, mode, &ctx);
            // A poisoned context (invalid platform config, unsupported
            // port) must not read as a clean run: carry the error in a
            // degradation record. Clean runs keep `None`, preserving
            // bit-identity with the historical legacy path.
            if let Some(e) = ctx.error() {
                report.degradation =
                    Some(Degradation { error: Some(e.clone()), ..Degradation::default() });
            }
            return report;
        }
        self.run_resilient(kernel, mode)
    }

    /// Like [`Self::run`], but a terminal failure (every mode in the chain
    /// exhausted) surfaces as an `Err` instead of a degraded report.
    pub fn try_run(&self, kernel: &mut dyn Kernel, mode: ExecutionMode) -> Result<RunReport, DmpimError> {
        let report = self.run(kernel, mode);
        match report.degradation.as_ref().and_then(|d| d.error.clone()) {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    fn run_resilient(&self, kernel: &mut dyn Kernel, mode: ExecutionMode) -> RunReport {
        let mut degradation = Degradation::default();
        let mut plan = match self.faults {
            Some((config, seed)) if !config.is_zero() => match FaultPlan::new(config, seed) {
                Ok(p) => Some(p),
                Err(e) => {
                    // Nonsense fault config: report it without running.
                    let ctx = self.context_for(mode);
                    let mut report = self.report_from(kernel.name(), mode, mode, &ctx);
                    degradation.error = Some(e);
                    report.degradation = Some(degradation);
                    return report;
                }
            },
            _ => None,
        };

        // World clock across attempts: abandoned attempts and backoff
        // consume simulated time, which is how a retry outlives an
        // unavailability window.
        let mut world_ps: Ps = 0;
        let mut abandoned_energy = EnergyBreakdown::new();
        let mut abandoned_cost = CostBreakdown::default();
        let mut attempt_no: u64 = 0;
        let mut last_error: Option<DmpimError> = None;

        let chain: &[ExecutionMode] = if self.policy.allow_fallback {
            mode.fallback_chain()
        } else {
            std::slice::from_ref(match mode {
                ExecutionMode::CpuOnly => &ExecutionMode::CpuOnly,
                ExecutionMode::PimCore => &ExecutionMode::PimCore,
                ExecutionMode::PimAcc => &ExecutionMode::PimAcc,
            })
        };

        let recovery = self.tracer.track("recovery");
        let events = self.tracer.events_enabled();
        let mut final_ctx: Option<(ExecutionMode, SimContext)> = None;
        'modes: for (i, &m) in chain.iter().enumerate() {
            if i > 0 {
                degradation.fallbacks += 1;
                if events {
                    self.tracer.instant_args(
                        recovery,
                        "fallback",
                        world_ps,
                        vec![("to", m.label().into())],
                    );
                }
                self.tracer.count("offload.fallbacks", 1);
            }
            let mut retries_here = 0u32;
            loop {
                attempt_no += 1;
                // Faults apply to the PIM logic layer; CpuOnly is the safe
                // harbor (its DRAM is the baseline part, not the stack).
                let attempt_plan = if m == ExecutionMode::CpuOnly {
                    None
                } else {
                    plan.take().map(|mut p| {
                        p.start_attempt(attempt_no);
                        p.set_world_offset(world_ps);
                        p
                    })
                };
                let mut ctx = self.attempt(kernel, m, attempt_plan, world_ps, attempt_no);
                if let Some(p) = ctx.take_fault_plan() {
                    plan = Some(p);
                }
                match ctx.error().cloned() {
                    None => {
                        final_ctx = Some((m, ctx));
                        last_error = None;
                        break 'modes;
                    }
                    Some(e) => {
                        degradation.abandoned_ps += ctx.now_ps();
                        abandoned_energy += ctx.total_energy();
                        abandoned_cost += ctx.cost_breakdown();
                        world_ps += ctx.now_ps();
                        let transient = e.is_transient();
                        last_error = Some(e);
                        final_ctx = Some((m, ctx));
                        if transient && retries_here < self.policy.max_retries {
                            retries_here += 1;
                            degradation.retries += 1;
                            let backoff = self.policy.backoff_for(retries_here);
                            if events {
                                self.tracer.complete_args(
                                    recovery,
                                    "backoff",
                                    world_ps,
                                    backoff,
                                    vec![
                                        ("retry", u64::from(retries_here).into()),
                                        ("mode", m.label().into()),
                                    ],
                                );
                            }
                            self.tracer.count("offload.retries", 1);
                            degradation.backoff_ps += backoff;
                            world_ps += backoff;
                            continue;
                        }
                        continue 'modes;
                    }
                }
            }
        }

        if let Some(p) = plan.as_ref() {
            degradation.faults = *p.stats();
        }
        degradation.error = last_error;
        // Unwrap is safe in spirit (the chain is never empty) but keep the
        // no-panic guarantee: synthesize an empty context if it ever is.
        let (executed, ctx) = match final_ctx {
            Some(pair) => pair,
            None => (mode, self.context_for(mode)),
        };
        let mut report = self.report_from(kernel.name(), mode, executed, &ctx);
        // Fold the failed attempts and backoff into the end-to-end numbers:
        // the device really spent that time and energy before succeeding.
        let overhead_ps = degradation.abandoned_ps + degradation.backoff_ps;
        degradation.abandoned_pj = abandoned_energy.total_pj();
        if overhead_ps > 0 || degradation.abandoned_pj > 0.0 {
            report.runtime_ps += overhead_ps;
            report.energy += abandoned_energy;
            report.cost += abandoned_cost;
            let recovery = report.by_tag.entry(FAULT_RECOVERY_TAG).or_default();
            recovery.time_ps += overhead_ps;
            recovery.energy += abandoned_energy;
        }
        report.degradation = Some(degradation);
        report
    }

    /// Run a kernel under every mode, in presentation order.
    pub fn run_all(&self, kernel: &mut dyn Kernel) -> Vec<RunReport> {
        ExecutionMode::ALL
            .iter()
            .map(|&m| self.run(kernel, m))
            .collect()
    }
}

/// Execute `f` as an offload region (§8.1's macro interface): the §8.2
/// coherence hand-off is charged when the region begins and ends, exactly
/// as [`OffloadEngine::run`] does around a whole kernel. Use this when a
/// kernel offloads fine-grained sections interleaved with host work.
///
/// ```
/// use pim_core::{offload_region, ExecutionMode, OffloadEngine, OpMix};
/// let engine = OffloadEngine::new();
/// let mut ctx = engine.context_for(ExecutionMode::PimCore);
/// offload_region(&mut ctx, 1 << 16, |ctx| ctx.ops(OpMix::simd(1024)));
/// assert_eq!(ctx.coherence_stats().messages, 4);
/// ```
pub fn offload_region<R>(
    ctx: &mut SimContext,
    region_bytes: u64,
    f: impl FnOnce(&mut SimContext) -> R,
) -> R {
    ctx.offload_transition(region_bytes, true);
    let r = f(ctx);
    ctx.offload_transition(region_bytes, false);
    r
}

/// Model two phases executing concurrently on different engines (CPU work
/// overlapped with PIM work), as in Figures 3b, 5b, 8b and the Figure 19
/// pipeline: total time is the longer of the two phases plus a hand-off.
pub fn overlap_ps(host_ps: Ps, pim_ps: Ps, handoff_ps: Ps) -> Ps {
    host_ps.max(pim_ps) + handoff_ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_cpusim::OpMix;

    /// A deliberately memory-bound kernel: stream 4 MB, 1 op per 64 B.
    struct Stream;
    impl Kernel for Stream {
        fn name(&self) -> &'static str {
            "stream"
        }
        fn working_set_bytes(&self) -> u64 {
            4 << 20
        }
        fn run(&mut self, ctx: &mut SimContext) {
            let buf = ctx.alloc(4 << 20);
            ctx.scoped("stream", |ctx| {
                for i in 0..(4 << 20) / 4096u64 {
                    ctx.read(buf.addr(i * 4096), 4096);
                    ctx.ops(OpMix::simd(16));
                }
            });
        }
    }

    /// A compute-bound kernel: tiny working set, lots of multiplies.
    struct Crunch;
    impl Kernel for Crunch {
        fn name(&self) -> &'static str {
            "crunch"
        }
        fn run(&mut self, ctx: &mut SimContext) {
            let buf = ctx.alloc(4096);
            ctx.read(buf.addr(0), 4096);
            ctx.ops(OpMix::mul(2_000_000));
        }
    }

    #[test]
    fn memory_bound_kernel_wins_big_from_pim() {
        let eng = OffloadEngine::new();
        let cpu = eng.run(&mut Stream, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut Stream, ExecutionMode::PimCore);
        let acc = eng.run(&mut Stream, ExecutionMode::PimAcc);
        assert!(pim.energy_vs(&cpu) < 0.7, "pim/cpu = {}", pim.energy_vs(&cpu));
        assert!(acc.energy_vs(&cpu) <= pim.energy_vs(&cpu));
        assert!(pim.speedup_vs(&cpu) > 1.0);
        assert!(cpu.mpki > 10.0);
    }

    #[test]
    fn compute_bound_kernel_prefers_accelerator_over_pim_core() {
        let eng = OffloadEngine::new();
        let cpu = eng.run(&mut Crunch, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut Crunch, ExecutionMode::PimCore);
        let acc = eng.run(&mut Crunch, ExecutionMode::PimAcc);
        // The in-order PIM core is slower than the OoO CPU on pure compute.
        assert!(pim.speedup_vs(&cpu) < 1.0);
        // The accelerator's throughput restores the win.
        assert!(acc.speedup_vs(&cpu) > 1.0);
        assert!(acc.energy_mj() < pim.energy_mj());
    }

    #[test]
    fn run_all_covers_every_mode() {
        let reports = OffloadEngine::new().run_all(&mut Stream);
        let modes: Vec<_> = reports.iter().map(|r| r.mode).collect();
        assert_eq!(modes, ExecutionMode::ALL.to_vec());
        for r in &reports {
            assert!(r.runtime_ps > 0);
            assert!(r.energy.total_pj() > 0.0);
        }
    }

    #[test]
    fn pim_runs_pay_coherence_messages() {
        let eng = OffloadEngine::new();
        let mut ctx = eng.context_for(ExecutionMode::PimCore);
        ctx.offload_transition(1 << 20, true);
        ctx.offload_transition(1 << 20, false);
        assert_eq!(ctx.coherence_stats().messages, 4);
    }

    #[test]
    fn overlap_takes_the_longer_phase() {
        assert_eq!(overlap_ps(100, 300, 10), 310);
        assert_eq!(overlap_ps(300, 100, 10), 310);
    }

    #[test]
    fn cluster_speeds_up_pim_core_without_changing_energy() {
        let single = OffloadEngine::new();
        let cluster = OffloadEngine::new().with_pim_cluster(16);
        let a = single.run(&mut Stream, ExecutionMode::PimCore);
        let b = cluster.run(&mut Stream, ExecutionMode::PimCore);
        assert!(b.runtime_ps < a.runtime_ps, "{} vs {}", b.runtime_ps, a.runtime_ps);
        let ratio = b.energy.total_pj() / a.energy.total_pj();
        assert!((0.95..1.05).contains(&ratio), "energy ratio {ratio}");
        // CPU-only and PIM-Acc are unaffected by the cluster setting.
        let c = cluster.run(&mut Stream, ExecutionMode::CpuOnly);
        let d = single.run(&mut Stream, ExecutionMode::CpuOnly);
        assert_eq!(c.runtime_ps, d.runtime_ps);
    }

    #[test]
    fn offload_region_brackets_coherence() {
        let engine = OffloadEngine::new();
        let mut ctx = engine.context_for(ExecutionMode::PimAcc);
        let out = offload_region(&mut ctx, 4096, |ctx| {
            ctx.ops(OpMix::scalar(10));
            7
        });
        assert_eq!(out, 7);
        assert_eq!(ctx.coherence_stats().messages, 4);
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(ExecutionMode::CpuOnly.label(), "CPU-Only");
        assert_eq!(ExecutionMode::PimCore.to_string(), "PIM-Core");
        assert_eq!(ExecutionMode::PimAcc.label(), "PIM-Acc");
    }

    fn report_key(r: &RunReport) -> (Ps, u64, u64) {
        (r.runtime_ps, r.energy.total_pj().to_bits(), r.instructions)
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_no_faults() {
        let plain = OffloadEngine::new();
        let zero = OffloadEngine::new().with_faults(FaultConfig::none(), 1234);
        for mode in ExecutionMode::ALL {
            let a = plain.run(&mut Stream, mode);
            let b = zero.run(&mut Stream, mode);
            assert_eq!(report_key(&a), report_key(&b), "mode {mode}");
            assert!(b.degradation.is_none(), "zero config must take the exact path");
        }
    }

    #[test]
    fn resilient_run_is_deterministic_per_seed() {
        let cfg = FaultConfig::with_rate(0.7);
        let eng = OffloadEngine::new().with_faults(cfg, 42);
        let a = eng.run(&mut Stream, ExecutionMode::PimAcc);
        let b = eng.run(&mut Stream, ExecutionMode::PimAcc);
        assert_eq!(report_key(&a), report_key(&b));
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn hostile_faults_degrade_to_cpu_instead_of_failing() {
        // vault_fail_prob 1.0: every vault fails at some point inside the
        // horizon; PIM attempts hit an unrecoverable fault quickly, and the
        // run must land on CpuOnly with the degradation recorded.
        let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let eng = OffloadEngine::new().with_faults(cfg, 9);
        let r = eng.run(&mut Stream, ExecutionMode::PimAcc);
        assert_eq!(r.executed, ExecutionMode::CpuOnly);
        assert!(r.degraded());
        let d = r.degradation.expect("resilient run records degradation");
        assert!(d.error.is_none(), "CpuOnly completes: {:?}", d.error);
        assert_eq!(d.fallbacks, 2, "PimAcc -> PimCore -> CpuOnly");
        assert!(d.faults.vault_hits > 0);
        assert!(d.abandoned_ps > 0 && d.abandoned_pj > 0.0);
        assert!(r.by_tag.contains_key(FAULT_RECOVERY_TAG));
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        // Moderate bit-flip rate: uncorrectable hits are transient, so the
        // engine should retry (salted draws let a retry pass) rather than
        // immediately abandoning the mode.
        let cfg = FaultConfig { bit_flips_per_gb: 8.0, ..FaultConfig::none() };
        let eng = OffloadEngine::new().with_faults(cfg, 7);
        let r = eng.run(&mut Stream, ExecutionMode::PimCore);
        let d = r.degradation.expect("resilient path");
        assert!(d.error.is_none());
        if d.retries > 0 {
            assert!(d.backoff_ps > 0);
            assert!(d.abandoned_ps > 0);
        }
        // Whatever happened, the run completed and charged its overheads.
        assert!(r.runtime_ps > 0);
    }

    #[test]
    fn fallback_can_be_disabled() {
        let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let policy = ResiliencePolicy { allow_fallback: false, ..ResiliencePolicy::default() };
        let eng = OffloadEngine::new().with_faults(cfg, 9).with_resilience(policy);
        let err = eng.try_run(&mut Stream, ExecutionMode::PimAcc).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(err.fault_kind(), Some(pim_faults::FaultKind::VaultFailure));
    }

    #[test]
    fn watchdog_bounds_runaway_kernels() {
        // 10 host events is far less than Stream needs: every mode fails,
        // and the terminal error must be the watchdog timeout.
        let eng = OffloadEngine::new().with_watchdog(Watchdog::new(u64::MAX, 10));
        let err = eng.try_run(&mut Stream, ExecutionMode::PimCore).unwrap_err();
        assert!(matches!(err, DmpimError::WatchdogTimeout { what: "host events", .. }));
        // The infallible path still returns a report carrying the error.
        let r = eng.run(&mut Stream, ExecutionMode::PimCore);
        assert!(r.degradation.and_then(|d| d.error).is_some());
    }

    #[test]
    fn generous_watchdog_changes_nothing_but_takes_resilient_path() {
        let eng = OffloadEngine::new().with_watchdog(Watchdog::new(u64::MAX, u64::MAX));
        let plain = OffloadEngine::new();
        let a = eng.run(&mut Stream, ExecutionMode::PimCore);
        let b = plain.run(&mut Stream, ExecutionMode::PimCore);
        assert_eq!(report_key(&a), report_key(&b));
        let d = a.degradation.expect("armed watchdog takes resilient path");
        assert!(d.is_clean());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = ResiliencePolicy::default();
        assert_eq!(p.backoff_for(1), p.backoff_ps);
        assert_eq!(p.backoff_for(2), 2 * p.backoff_ps);
        assert_eq!(p.backoff_for(3), 4 * p.backoff_ps);
    }

    #[test]
    fn traced_run_emits_attempt_spans_without_changing_numbers() {
        let plain = OffloadEngine::new();
        let tracer = Tracer::new();
        let traced = OffloadEngine::new().with_tracer(&tracer);
        let a = plain.run(&mut Stream, ExecutionMode::PimCore);
        let b = traced.run(&mut Stream, ExecutionMode::PimCore);
        assert_eq!(report_key(&a), report_key(&b));
        let names: Vec<String> = tracer.events().iter().map(|e| e.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "stream"), "{names:?}");
        assert!(tracer.tracks().iter().any(|t| t == "pim-core"));
        assert!(tracer.tracks().iter().any(|t| t == "kernel-phases"));
    }

    #[test]
    fn traced_resilient_run_places_attempts_on_world_timeline() {
        let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let tracer = Tracer::new();
        let eng = OffloadEngine::new().with_faults(cfg, 9).with_tracer(&tracer);
        let r = eng.run(&mut Stream, ExecutionMode::PimAcc);
        assert_eq!(r.executed, ExecutionMode::CpuOnly);
        assert!(tracer.tracks().iter().any(|t| t == "recovery"));
        assert!(tracer.tracks().iter().any(|t| t == "faults"));
        assert!(tracer.metrics().counters["offload.fallbacks"] >= 2);
        // The successful CPU attempt must start after the abandoned PIM
        // attempts on the world timeline.
        let cpu_attempt = tracer
            .events()
            .into_iter()
            .find(|e| e.name == "stream" && e.ts_ps > 0)
            .expect("fallback attempt span");
        assert!(cpu_attempt.ts_ps > 0);
    }

    #[test]
    fn reports_carry_a_consistent_cost_breakdown() {
        let eng = OffloadEngine::new();
        for mode in ExecutionMode::ALL {
            let r = eng.run(&mut Stream, mode);
            let shares = r.cost.shares();
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{mode}: {shares:?}");
            // Attributed time stays within the end-to-end runtime.
            assert!(r.cost.total_ps() <= r.runtime_ps as f64 * (1.0 + 1e-9), "{mode}");
            if mode == ExecutionMode::CpuOnly {
                assert_eq!(r.cost.pim_link_ps + r.cost.coherence_ps, 0.0);
                assert!(r.cost.dram_queue_ps > 0.0);
            } else {
                assert!(r.cost.coherence_ps > 0.0, "{mode} pays offload transitions");
                assert!(r.cost.pim_link_ps > 0.0, "{mode} uses the vault link");
            }
        }
        // Degraded runs fold the abandoned attempts' cost in.
        let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let r = OffloadEngine::new().with_faults(cfg, 9).run(&mut Stream, ExecutionMode::PimAcc);
        assert_eq!(r.executed, ExecutionMode::CpuOnly);
        assert!(r.cost.total_ps() > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"cost_ps\""));
        assert!(json.contains("\"dram-service\""));
    }

    #[test]
    fn reports_render_to_stable_json() {
        let eng = OffloadEngine::new();
        let r = eng.run(&mut Crunch, ExecutionMode::PimAcc);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.contains("\"kernel\":\"crunch\""));
        assert!(json.contains("\"mode\":\"PIM-Acc\""));
        assert!(json.contains("\"degradation\":null"));
        assert!(json.contains("\"total_pj\""));
        // Degraded runs embed the degradation record.
        let cfg = FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() };
        let r = OffloadEngine::new().with_faults(cfg, 9).run(&mut Stream, ExecutionMode::PimAcc);
        let json = r.to_json();
        assert!(json.contains("\"fallbacks\":2"));
        assert!(json.contains("\"vault_hits\""));
        let d = r.degradation.unwrap();
        assert!(d.to_json().contains("\"error\":null"));
    }

    #[test]
    fn invalid_platform_surfaces_as_config_error() {
        let mut bad = Platform::baseline();
        bad.mem.llc.associativity = 0;
        let eng = OffloadEngine::new().with_baseline(bad);
        let err = eng.try_run(&mut Crunch, ExecutionMode::CpuOnly).unwrap_err();
        assert!(matches!(err, DmpimError::InvalidConfig { .. }));
        assert_eq!(err.label(), "invalid-config");
        // The infallible path reports it without simulating anything.
        let r = eng.run(&mut Crunch, ExecutionMode::CpuOnly);
        assert_eq!(r.runtime_ps, 0);
        assert!(r.degradation.and_then(|d| d.error).is_some());
    }

    #[test]
    fn fallback_chains_end_in_cpu_only() {
        for mode in ExecutionMode::ALL {
            let chain = mode.fallback_chain();
            assert_eq!(chain.first(), Some(&mode));
            assert_eq!(chain.last(), Some(&ExecutionMode::CpuOnly));
        }
    }
}
