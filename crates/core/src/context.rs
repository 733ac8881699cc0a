//! The simulation context: one engine executing against one memory system.

use std::collections::BTreeMap;

use pim_cpusim::{EngineTiming, OpMix};
use pim_energy::{Component, EnergyBreakdown, EnergyParams, Engine, OpClass};
use pim_faults::{DmpimError, FaultKind, FaultPlan, FaultStats, Watchdog};
use pim_memsim::{
    line_count, AccessKind, AccessOutcome, Activity, CoherenceModel, MemorySystem, Port, Ps,
    LINE_BYTES,
};
use pim_trace::{CounterId, HistogramId, MetricsShard, TrackId, Tracer};

use crate::buffer::Buffer;
use crate::platform::Platform;

/// Default attribution tag for work outside any [`SimContext::scoped`] call.
pub const OTHER_TAG: &str = "other";

/// Simulated-time cost attribution across the six model layers the
/// `--explain` mode reports on: compute, private caches, coherence,
/// DRAM queueing, DRAM service, and the PIM vault/TSV link.
///
/// Accumulated as f64 picoseconds because exposed-stall scaling and
/// fault-plan throttling stretch integer latencies by real factors; each
/// context accumulates in deterministic program order, so the totals are
/// bit-identical across serial and parallel sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Engine execution time (retired op mixes).
    pub compute_ps: f64,
    /// Private-cache / SRAM time (hit lead-ins + line occupancy).
    pub cache_ps: f64,
    /// Offload-transition coherence cost (flushes, hand-off messages).
    pub coherence_ps: f64,
    /// Memory-controller and off-chip channel queueing/transfer time.
    pub dram_queue_ps: f64,
    /// DRAM array service time (activate + column access).
    pub dram_service_ps: f64,
    /// Stacked vault/TSV link time on the PIM internal path.
    pub pim_link_ps: f64,
}

impl CostBreakdown {
    /// Component labels, in [`CostBreakdown::as_array`] order.
    pub const LABELS: [&'static str; 6] =
        ["compute", "cache", "coherence", "dram-queue", "dram-service", "pim-link"];

    /// The six components as an array in [`CostBreakdown::LABELS`] order.
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.compute_ps,
            self.cache_ps,
            self.coherence_ps,
            self.dram_queue_ps,
            self.dram_service_ps,
            self.pim_link_ps,
        ]
    }

    /// Total attributed simulated time, in ps.
    pub fn total_ps(&self) -> f64 {
        self.as_array().iter().sum()
    }

    /// Normalized shares in [`CostBreakdown::LABELS`] order. Sums to 1.0
    /// (within f64 rounding) whenever any time was attributed; all zero
    /// otherwise.
    pub fn shares(&self) -> [f64; 6] {
        let total = self.total_ps();
        let mut a = self.as_array();
        if total > 0.0 {
            for v in &mut a {
                *v /= total;
            }
        }
        a
    }
}

impl std::ops::Add for CostBreakdown {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            compute_ps: self.compute_ps + rhs.compute_ps,
            cache_ps: self.cache_ps + rhs.cache_ps,
            coherence_ps: self.coherence_ps + rhs.coherence_ps,
            dram_queue_ps: self.dram_queue_ps + rhs.dram_queue_ps,
            dram_service_ps: self.dram_service_ps + rhs.dram_service_ps,
            pim_link_ps: self.pim_link_ps + rhs.pim_link_ps,
        }
    }
}

impl std::ops::AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Per-function-tag accounting (drives the paper's per-function breakdowns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagStats {
    /// Energy attributed to the tag.
    pub energy: EnergyBreakdown,
    /// Execution + exposed-stall time attributed to the tag, in ps.
    pub time_ps: Ps,
    /// Retired operations.
    pub ops: OpMix,
    /// Memory-system activity.
    pub activity: Activity,
    /// Lines that missed the last private cache level and went to memory.
    pub memory_lines: u64,
}

impl TagStats {
    /// Fraction of this tag's energy that is data movement.
    pub fn data_movement_fraction(&self) -> f64 {
        self.energy.data_movement_fraction()
    }
}

/// One compute engine executing a kernel against a simulated memory system.
///
/// The context keeps a monotonically advancing clock (picoseconds), a bump
/// allocator for simulated addresses, a per-tag energy/time ledger, and the
/// CPU↔PIM coherence model. See the crate docs for the full workflow.
///
/// # Errors
///
/// Kernel-facing operations ([`SimContext::read`], [`SimContext::write`],
/// [`SimContext::ops`]) stay infallible so `Kernel::run` needs no plumbing.
/// Instead the context *poisons* itself on the first failure — an injected
/// fault, an unsupported port, a tripped watchdog — recording the error and
/// turning every later operation into a no-op. Drivers inspect
/// [`SimContext::error`] (or use `OffloadEngine::try_run`, which does) after
/// the kernel returns.
#[derive(Debug)]
pub struct SimContext {
    mem: MemorySystem,
    timing: EngineTiming,
    port: Port,
    params: EnergyParams,
    now_ps: Ps,
    tag_stack: Vec<&'static str>,
    accounts: BTreeMap<&'static str, TagStats>,
    next_addr: u64,
    coherence: CoherenceModel,
    offloaded: bool,
    faults: Option<FaultPlan>,
    watchdog: Watchdog,
    host_events: u64,
    cost: CostBreakdown,
    error: Option<DmpimError>,
    tracer: Tracer,
    tracks: Option<CtxTracks>,
    /// This context's own metric slots (a no-op without a tracer).
    shard: MetricsShard,
    /// Offset added to `now_ps` when stamping trace events, so resilient
    /// drivers can place each attempt on one world timeline.
    base_ps: Ps,
}

/// Per-row accounting template for a ranged-access hit streak: what one
/// all-hit row of a fixed line count books on the current port/engine.
#[derive(Debug, Clone, Copy)]
struct RowTemplate {
    /// Exposed stall per row (thermal throttle included), in ps.
    stall: Ps,
    /// Per-row stall added by the thermal throttle, in ps.
    throttled: Ps,
    /// Per-row increment of `CostBreakdown::cache_ps` (the scalar path's
    /// `latency * (stall / latency)`, kept in its exact f64 form).
    cache_add: f64,
    /// Per-row energy into the L1 component, in pJ.
    row_pj: f64,
    /// Whether activity lands in `scratch_accesses` (PIM accelerator)
    /// rather than `l1_accesses`.
    scratch: bool,
}

/// Track and metric ids this context books under, resolved once at
/// attach time (the engine's again at [`SimContext::switch_engine`]).
/// The track ids are [`TrackId::NONE`] on a metrics-only tracer.
#[derive(Debug, Clone, Copy)]
struct CtxTracks {
    engine: TrackId,
    phases: TrackId,
    faults: TrackId,
    stall: HistogramId,
    ops: CounterId,
}

impl SimContext {
    /// Build a context for an arbitrary engine/port combination.
    ///
    /// Construction stays infallible so drivers need no plumbing: if
    /// `platform.mem` fails validation the context is built over a
    /// known-good fallback memory system but starts *poisoned* with the
    /// [`DmpimError::InvalidConfig`], so nothing is simulated and the
    /// driver reports the configuration error like any other fault.
    pub fn new(platform: Platform, timing: EngineTiming, port: Port) -> Self {
        let (mem, config_error) = match MemorySystem::new(platform.mem) {
            Ok(mem) => (mem, None),
            Err(e) => (MemorySystem::fallback(), Some(e)),
        };
        Self {
            mem,
            coherence: CoherenceModel::new(platform.coherence),
            params: platform.energy,
            timing,
            port,
            now_ps: 0,
            tag_stack: Vec::new(),
            accounts: BTreeMap::new(),
            next_addr: 0x1_0000,
            offloaded: false,
            faults: None,
            watchdog: Watchdog::unlimited(),
            host_events: 0,
            cost: CostBreakdown::default(),
            error: config_error,
            tracer: Tracer::disabled(),
            tracks: None,
            shard: MetricsShard::default(),
            base_ps: 0,
        }
    }

    /// Attach a tracer: kernel phases, engine activity, memory events and
    /// fault instants are recorded on it. A disabled tracer detaches all
    /// hooks (including the memory system's), restoring the no-op path.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.mem.set_tracer(tracer);
        if tracer.metrics_enabled() {
            self.tracks = Some(CtxTracks {
                engine: tracer.track(self.timing.label()),
                phases: tracer.track("kernel-phases"),
                faults: tracer.track("faults"),
                stall: tracer.histogram(stall_metric(self.timing.engine)),
                ops: tracer.counter(ops_metric(self.timing.engine)),
            });
        } else {
            self.tracks = None;
        }
        self.shard = tracer.shard();
        self.tracer = tracer.clone();
        self
    }

    /// The tracer attached to this context (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Offset trace-event timestamps by `base_ps` (world time of this
    /// context's start). Local accounting (`now_ps`) is unaffected.
    pub fn set_time_base(&mut self, base_ps: Ps) {
        self.base_ps = base_ps;
    }

    /// Current time on the world (trace) timeline.
    fn sim_ps(&self) -> Ps {
        self.base_ps + self.now_ps
    }

    /// Attach a fault plan: subsequent accesses and op retirements are
    /// subject to its scheduled and per-access faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Bound this context's progress with a watchdog.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// A CPU-only context on the given platform (most tests start here).
    pub fn cpu_only(platform: Platform) -> Self {
        Self::new(platform, EngineTiming::soc_cpu(), Port::Cpu)
    }

    /// The engine currently executing.
    pub fn timing(&self) -> EngineTiming {
        self.timing
    }

    /// The memory port in use.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Current simulated time, in ps.
    pub fn now_ps(&self) -> Ps {
        self.now_ps
    }

    /// Energy parameters in use.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Allocate `bytes` of simulated address space (4 kB aligned).
    pub fn alloc(&mut self, bytes: u64) -> Buffer {
        let base = self.next_addr;
        self.next_addr += bytes.max(1).div_ceil(4096) * 4096;
        Buffer::new(base, bytes)
    }

    fn current_tag(&self) -> &'static str {
        self.tag_stack.last().copied().unwrap_or(OTHER_TAG)
    }

    fn account(&mut self) -> &mut TagStats {
        let tag = self.current_tag();
        self.accounts.entry(tag).or_default()
    }

    /// Attribute everything inside `f` to `tag` (nesting: innermost wins).
    ///
    /// With a tracer attached, each scope also becomes a span on the
    /// `kernel-phases` track, so the per-function breakdown is visible on
    /// the timeline.
    pub fn scoped<R>(&mut self, tag: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.sim_ps();
        self.tag_stack.push(tag);
        let r = f(self);
        self.tag_stack.pop();
        if let Some(tracks) = self.tracks {
            let end = self.sim_ps();
            self.tracer.complete(tracks.phases, tag, t0, end.saturating_sub(t0));
        }
        r
    }

    /// Drop an instant marker on the `kernel-phases` track at the current
    /// simulated time. No-op without a tracer attached.
    pub fn mark(&self, name: impl Into<std::borrow::Cow<'static, str>>) {
        if let Some(tracks) = self.tracks {
            self.tracer.instant(tracks.phases, name, self.sim_ps());
        }
    }

    /// Record the first failure and poison the context. Later operations
    /// become no-ops so a kernel mid-flight cannot corrupt the ledger.
    fn trip(&mut self, e: DmpimError) {
        if self.error.is_none() {
            if let Some(tracks) = self.tracks {
                self.tracer.instant(tracks.faults, e.label(), self.sim_ps());
                self.tracer.count("faults.tripped", 1);
            }
            self.error = Some(e);
        }
    }

    /// Bump the host-event counter and check the watchdog. Returns `false`
    /// when the context is (or just became) poisoned.
    fn tick(&mut self) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.host_events += 1;
        if self.watchdog.is_armed() {
            if let Err(e) = self.watchdog.check(self.now_ps, self.host_events) {
                self.trip(e);
                return false;
            }
        }
        true
    }

    /// Perform a memory access of `bytes` at `addr`.
    ///
    /// On a poisoned context this is a no-op; with a fault plan attached,
    /// injected faults poison the context (see the type-level docs).
    pub fn access(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        if bytes == 0 || !self.tick() || !self.pim_gate(addr) {
            return;
        }
        match self.mem.access_from(self.port, addr, bytes, kind, self.now_ps) {
            Ok(out) => self.settle(&out),
            Err(e) => self.trip(e),
        }
    }

    /// The fault plan's checks before a PIM-port access: trip (and return
    /// `false`) while the PIM logic is unavailable or once the vault `addr`
    /// lives in has failed.
    fn pim_gate(&mut self, addr: u64) -> bool {
        if self.port == Port::Cpu {
            return true;
        }
        let Some(plan) = self.faults.as_mut() else {
            return true;
        };
        let at_ps = self.now_ps;
        let fault = if plan.pim_unavailable(at_ps).is_some() {
            DmpimError::FaultTransient { kind: FaultKind::PimUnavailable, at_ps }
        } else if self.mem.vault_of(addr).is_some_and(|v| plan.vault_failed(v, at_ps)) {
            DmpimError::FaultUnrecoverable { kind: FaultKind::VaultFailure, at_ps }
        } else {
            return true;
        };
        self.trip(fault);
        false
    }

    /// Settle one walked access: draw its DRAM faults (ECC correction
    /// charge, detected-uncorrectable trip), stretch its stall by the
    /// thermal throttle, then book it — trace the stall, advance the
    /// clock, split the stall across cost layers, count coherence lookups,
    /// and price the activity into the current tag's ledger. Shared by
    /// [`SimContext::access`] and the ranged engine's partial row, so fault
    /// draws keep the reference order.
    fn settle(&mut self, out: &AccessOutcome) {
        let mut stall = self.timing.exposed_stall_ps(out.latency_ps);
        let mut uncorrectable = false;
        if let Some(plan) = self.faults.as_mut() {
            let dram_bytes = out.activity.dram_read_bytes + out.activity.dram_write_bytes;
            // `draw_dram_faults(0)` is a guaranteed no-op (no RNG draw),
            // so cache hits skip the call entirely.
            if dram_bytes > 0 {
                let flips = plan.draw_dram_faults(dram_bytes);
                stall += flips.corrected * plan.config().ecc.correction_ps;
                uncorrectable = flips.uncorrectable;
            }
            if self.port != Port::Cpu {
                stall = plan.throttle(self.now_ps, stall);
            }
        }
        if uncorrectable {
            // Detected-uncorrectable: the access is still charged (the DRAM
            // cycles happened) but the data is lost — surface a transient
            // fault the offload layer can retry.
            let at_ps = self.now_ps;
            self.trip(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps });
        }
        if let Some(tracks) = self.tracks {
            self.shard.observe(tracks.stall, stall, 1);
        }
        self.now_ps += stall;
        // Attribute the exposed stall across model layers in the same
        // proportions as the access's exact latency split (ECC correction
        // and throttle stretch every component uniformly).
        if out.latency_ps > 0 {
            let scale = stall as f64 / out.latency_ps as f64;
            let b = out.breakdown;
            self.cost.cache_ps += b.cache_ps as f64 * scale;
            self.cost.dram_queue_ps += b.queue_ps as f64 * scale;
            self.cost.dram_service_ps += b.service_ps as f64 * scale;
            self.cost.pim_link_ps += b.link_ps as f64 * scale;
        }
        if self.port != Port::Cpu && out.memory_lines > 0 {
            self.coherence.directory_lookups(out.memory_lines);
        }
        let e = self.params.price_activity(&out.activity);
        let acc = self.account();
        acc.energy += e;
        acc.time_ps += stall;
        acc.activity += out.activity;
        acc.memory_lines += out.memory_lines;
    }

    /// A load of `bytes` at `addr`.
    pub fn read(&mut self, addr: u64, bytes: u64) {
        self.access(addr, bytes, AccessKind::Read);
    }

    /// A store of `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: u64) {
        self.access(addr, bytes, AccessKind::Write);
    }

    /// Perform `rows` accesses of `row_bytes` each, at `addr`,
    /// `addr + row_stride`, `addr + 2*row_stride`, ... — the stride/
    /// run-length descriptor the ranged engine consumes.
    ///
    /// Bit-identical to the scalar loop
    /// `for i in 0..rows { self.access(addr + i*row_stride, row_bytes, kind) }`
    /// (same clock, ledger, energy bits, cache state, watchdog trips, fault
    /// draws and statistics, trace events and metrics), but rows whose
    /// lines all hit the first private cache level are committed in
    /// batches: one set-lookup per distinct line and one template-priced
    /// accounting pass per streak, instead of the full per-access walk.
    /// An all-hit row draws no DRAM faults and emits no trace event, so a
    /// streak only has to hold the fault plan's windowed state constant
    /// ([`FaultPlan::pim_window`]) and book its metrics once, multiplied
    /// out; rows that miss settle on the reference walk in row order.
    pub fn access_range(
        &mut self,
        addr: u64,
        row_bytes: u64,
        row_stride: u64,
        rows: u64,
        kind: AccessKind,
    ) {
        if row_bytes == 0 || rows == 0 || self.error.is_some() {
            return;
        }
        let done = self.ranged_fast(addr, row_bytes, row_stride, rows, kind);
        for i in done..rows {
            self.access(addr + i * row_stride, row_bytes, kind);
        }
    }

    /// Ranged loads (see [`SimContext::access_range`]).
    pub fn read_rows(&mut self, addr: u64, row_bytes: u64, row_stride: u64, rows: u64) {
        self.access_range(addr, row_bytes, row_stride, rows, AccessKind::Read);
    }

    /// Ranged stores (see [`SimContext::access_range`]).
    pub fn write_rows(&mut self, addr: u64, row_bytes: u64, row_stride: u64, rows: u64) {
        self.access_range(addr, row_bytes, row_stride, rows, AccessKind::Write);
    }

    /// Latency/energy template of one all-hit row of `lines` lines on the
    /// current port: every committed streak row books exactly these values,
    /// which equal what the scalar walk computes for the same row. Also
    /// returns how many such rows from now the fault plan lets a streak
    /// hold its state for (`u64::MAX` without a plan or on the CPU port,
    /// whose all-hit rows the plan never touches).
    fn row_template(&self, lines: u64) -> (RowTemplate, u64) {
        let latency = self.mem.hit_row_latency(self.port, lines);
        let unthrottled = self.timing.exposed_stall_ps(latency);
        let (stall, allowed) = match &self.faults {
            Some(plan) if self.port != Port::Cpu => plan.pim_window(self.now_ps, unthrottled),
            _ => (unthrottled, u64::MAX),
        };
        // Same split arithmetic as `settle`: an all-hit row's breakdown is
        // pure cache time, so only that lane moves.
        let cache_add = if latency > 0 {
            latency as f64 * (stall as f64 / latency as f64)
        } else {
            0.0
        };
        // An all-hit row prices into the L1 component only; every other
        // lane of `price_activity` adds an exact +0.0, and the L1 lane's
        // own two terms reduce to a single product because the unused one
        // is `0 * pj == +0.0` (adding +0.0 never changes a non-negative
        // f64). So the direct product below is bit-equal to pricing the
        // full Activity record.
        let scratch = self.port == Port::PimAccel;
        let row_pj = if scratch {
            lines as f64 * self.params.scratch_access_pj
        } else {
            lines as f64 * self.params.l1_access_pj
        };
        let t = RowTemplate { stall, throttled: stall - unthrottled, cache_add, row_pj, scratch };
        (t, allowed)
    }

    /// The ranged fast path: commit hit streaks in batches, settle each
    /// partial row on the reference walk, and stop at the first condition
    /// the batch engine cannot express. Returns the number of leading rows
    /// fully processed; the caller replays the rest through the scalar
    /// loop (`rows` once a watchdog trip, fault or memory error poisoned
    /// us — the remaining accesses would be no-ops).
    fn ranged_fast(
        &mut self,
        addr: u64,
        row_bytes: u64,
        row_stride: u64,
        rows: u64,
        kind: AccessKind,
    ) -> u64 {
        let mut done = 0u64;
        while done < rows {
            let base = addr + done * row_stride;
            let (t, mut allowed) = self.row_template(line_count(base, row_bytes));
            if allowed == 0 {
                // Zero progress, closed fault window: the PIM is unavailable
                // (the next access trips) or a vault has failed (it stays
                // failed, so every later row would get 0 too). Hand the rest
                // to the scalar loop and its per-access fault checks.
                return done;
            }
            // The scalar loop ticks (host event + watchdog check) *before*
            // each row's walk; bound the streak so no tick inside it can
            // trip, and reproduce the exact trip via `tick()` when the
            // very next one would.
            if self.watchdog.is_armed() {
                let watchdog = self.watchdog.allowance(self.now_ps, self.host_events, t.stall);
                allowed = allowed.min(watchdog);
                if allowed == 0 {
                    self.tick();
                    return rows;
                }
            }
            let want = (rows - done).min(allowed);
            let r = self.mem.try_rows(self.port, base, row_bytes, row_stride, want, kind);
            let full = r.full_rows;
            if full > 0 {
                self.host_events += full;
                self.now_ps += t.stall * full;
                // The integer counters batch associatively; the two f64
                // accumulators take their adds one row at a time so the
                // bit pattern matches the scalar sequence exactly.
                let tag = self.tag_stack.last().copied().unwrap_or(OTHER_TAG);
                let acc = self.accounts.entry(tag).or_default();
                let lane = acc.energy.get_mut(Component::L1);
                let mut e_acc = *lane;
                let mut c_acc = self.cost.cache_ps;
                for _ in 0..full {
                    e_acc += t.row_pj;
                    c_acc += t.cache_add;
                }
                *lane = e_acc;
                self.cost.cache_ps = c_acc;
                acc.time_ps += t.stall * full;
                if t.scratch {
                    acc.activity.scratch_accesses += r.lines_per_row * full;
                } else {
                    acc.activity.l1_accesses += r.lines_per_row * full;
                }
                if let Some(plan) = self.faults.as_mut() {
                    plan.note_throttled(t.throttled * full);
                }
                if let Some(tracks) = self.tracks {
                    self.shard.observe(tracks.stall, t.stall, full);
                }
                done += full;
            }
            if let Some(hits) = r.partial_hits {
                // The row at `done` had its first `hits` lines committed
                // as hits before one missed. Its index is below `allowed`,
                // so its tick cannot trip and the fault plan's checks pass;
                // finish it on the reference walk, which books misses,
                // writebacks and queueing exactly, and settle it like a
                // scalar access (fault draws in row order).
                if !self.tick() {
                    return rows;
                }
                let row_addr = addr + done * row_stride;
                match self.mem.finish_row(self.port, row_addr, row_bytes, kind, self.now_ps, hits) {
                    Ok(out) => self.settle(&out),
                    Err(e) => self.trip(e),
                }
                if self.error.is_some() {
                    return rows;
                }
                done += 1;
            } else if full == 0 {
                // Zero progress: a PIM port on a non-stacked backend. Hand
                // the rest to the scalar loop, which reports the port error.
                return done;
            }
            // `full > 0 && partial_hits == None`: the streak ended at a
            // row-shape change or at `want`; loop to start a new streak.
        }
        rows
    }

    /// Retire an operation mix on the active engine.
    ///
    /// No-op on a poisoned context; thermal throttle (if a fault plan is
    /// active) stretches the execution time of logic-layer engines.
    pub fn ops(&mut self, mix: OpMix) {
        if !self.tick() {
            return;
        }
        let mut dur = self.timing.execute_ps(&mix);
        if self.port != Port::Cpu {
            if let Some(plan) = self.faults.as_mut() {
                dur = plan.throttle(self.now_ps, dur);
            }
        }
        self.now_ps += dur;
        self.cost.compute_ps += dur as f64;
        let engine = self.timing.engine;
        if let Some(tracks) = self.tracks {
            self.shard.count(tracks.ops, mix.total());
        }
        let pj = mix.scalar as f64 * self.params.op_energy_pj(engine, OpClass::Scalar)
            + mix.simd as f64 * self.params.op_energy_pj(engine, OpClass::Simd)
            + mix.mul as f64 * self.params.op_energy_pj(engine, OpClass::Mul)
            + mix.branch as f64 * self.params.op_energy_pj(engine, OpClass::Branch);
        let acc = self.account();
        acc.energy.add_pj(Component::Cpu, pj);
        acc.time_ps += dur;
        acc.ops += mix;
    }

    /// Retire an op mix spread evenly across `threads` cores: wall-clock
    /// time divides by the thread count, energy does not (used for the
    /// multithreaded GEMM kernel, which TensorFlow runs on all SoC cores).
    pub fn ops_parallel(&mut self, mix: OpMix, threads: u64) {
        let t0 = self.now_ps;
        self.ops(mix);
        let full = self.now_ps - t0;
        self.now_ps = t0 + full / threads.max(1);
        // Keep per-tag time and attributed compute consistent with the
        // wall clock.
        self.cost.compute_ps -= (full - full / threads.max(1)) as f64;
        let acc = self.account();
        acc.time_ps -= full - full / threads.max(1);
    }

    /// Advance the clock without doing work (idle wait / dependency).
    pub fn advance(&mut self, ps: Ps) {
        self.now_ps += ps;
    }

    /// Switch which engine executes (used when a kernel hands work between
    /// host and PIM inside one timeline).
    pub fn switch_engine(&mut self, timing: EngineTiming, port: Port) {
        self.timing = timing;
        self.port = port;
        if let Some(t) = &mut self.tracks {
            t.engine = self.tracer.track(timing.label());
            t.stall = self.tracer.histogram(stall_metric(timing.engine));
            t.ops = self.tracer.counter(ops_metric(timing.engine));
        }
    }

    /// Charge an offload transition (§8.2): flush/invalidate CPU caches for
    /// a region of `region_bytes`, exchange hand-off messages.
    ///
    /// No-op on a poisoned context.
    pub fn offload_transition(&mut self, region_bytes: u64, begin: bool) {
        if self.error.is_some() {
            return;
        }
        if let Some(tracks) = self.tracks.filter(|_| self.tracer.events_enabled()) {
            let name = if begin { "offload-begin" } else { "offload-end" };
            self.tracer.instant_args(
                tracks.engine,
                name,
                self.sim_ps(),
                [("region_bytes", region_bytes.into())],
            );
        }
        let cost = if begin {
            self.offloaded = true;
            self.coherence.offload_begin(region_bytes)
        } else {
            self.offloaded = false;
            self.coherence.offload_end(region_bytes)
        };
        // Dirty lines flushed at `begin` become DRAM writes over the
        // off-chip path; invalidations at `end` are message-only.
        let mut act = Activity::new();
        if begin {
            let dirty = self.mem.flush_cpu_caches().max(cost.lines);
            act.dram_write_bytes = dirty * LINE_BYTES;
            act.offchip_bytes = dirty * LINE_BYTES;
            act.memctrl_requests = dirty;
        }
        act.offchip_bytes += cost.message_bytes;
        self.now_ps += cost.latency_ps;
        self.cost.coherence_ps += cost.latency_ps as f64;
        let msg_pj = 2.0 * self.params.coherence_msg_pj;
        let e = self.params.price_activity(&act);
        let acc = self.account();
        acc.energy += e;
        acc.energy.add_pj(Component::Interconnect, msg_pj);
        acc.time_ps += cost.latency_ps;
        acc.activity += act;
    }

    /// Total energy across all tags.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.accounts
            .values()
            .fold(EnergyBreakdown::new(), |acc, t| acc + t.energy)
    }

    /// Total memory activity across all tags.
    pub fn total_activity(&self) -> Activity {
        let mut a = Activity::new();
        for t in self.accounts.values() {
            a += t.activity;
        }
        a
    }

    /// Total retired operations (the paper's instruction count proxy).
    pub fn instructions(&self) -> u64 {
        self.accounts.values().map(|t| t.ops.total()).sum()
    }

    /// Lines that left the last private cache level toward memory.
    pub fn memory_lines(&self) -> u64 {
        self.accounts.values().map(|t| t.memory_lines).sum()
    }

    /// Last-level-cache misses per kilo-instruction (§3.2's criterion 3).
    pub fn mpki(&self) -> f64 {
        let instr = self.instructions();
        if instr == 0 {
            0.0
        } else {
            self.memory_lines() as f64 * 1000.0 / instr as f64
        }
    }

    /// Per-tag ledger, in tag order.
    pub fn tag_stats(&self) -> &BTreeMap<&'static str, TagStats> {
        &self.accounts
    }

    /// Stats for one tag, if it was ever used.
    pub fn tag(&self, tag: &str) -> Option<&TagStats> {
        self.accounts.get(tag)
    }

    /// Simulated-time cost attribution across the six model layers
    /// (compute / cache / coherence / DRAM queue / DRAM service /
    /// PIM link) accumulated by every access, op retirement, and
    /// offload transition on this context.
    pub fn cost_breakdown(&self) -> CostBreakdown {
        self.cost
    }

    /// Coherence counters (messages, flushes, directory lookups).
    pub fn coherence_stats(&self) -> pim_memsim::CoherenceStats {
        self.coherence.stats()
    }

    /// Direct access to the memory system (stats, cache contents).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Poison the context with an error discovered by the kernel itself
    /// (e.g. corrupt input data). Later operations become no-ops and the
    /// driver sees the error exactly as for injected faults.
    pub fn fail(&mut self, e: DmpimError) {
        self.trip(e);
    }

    /// The first error this context hit, if it is poisoned.
    pub fn error(&self) -> Option<&DmpimError> {
        self.error.as_ref()
    }

    /// Whether the context is poisoned (all further work is a no-op).
    pub fn is_poisoned(&self) -> bool {
        self.error.is_some()
    }

    /// Host-side events processed (accesses + op retirements); the
    /// denominator of the watchdog's progress bound.
    pub fn host_events(&self) -> u64 {
        self.host_events
    }

    /// Counters of every fault the attached plan injected (default when no
    /// plan is attached).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| *p.stats()).unwrap_or_default()
    }

    /// Detach the fault plan (with its updated stats and draw-stream
    /// position), so a driver can carry it into a retry attempt.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }
}

/// Per-engine counter name for retired operations.
fn ops_metric(engine: Engine) -> &'static str {
    match engine {
        Engine::SocCpu => "ops.cpu",
        Engine::PimCore => "ops.pim-core",
        Engine::PimAccel => "ops.pim-accel",
        Engine::CodecHw => "ops.codec-hw",
    }
}

/// Per-engine histogram name for exposed memory-stall time.
fn stall_metric(engine: Engine) -> &'static str {
    match engine {
        Engine::SocCpu => "stall_ps.cpu",
        Engine::PimCore => "stall_ps.pim-core",
        Engine::PimAccel => "stall_ps.pim-accel",
        Engine::CodecHw => "stall_ps.codec-hw",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SimContext {
        SimContext::cpu_only(Platform::baseline())
    }

    #[test]
    fn clock_advances_with_work() {
        let mut c = ctx();
        let t0 = c.now_ps();
        c.ops(OpMix::scalar(1000));
        assert!(c.now_ps() > t0);
        let t1 = c.now_ps();
        c.read(0x1000, 4096);
        assert!(c.now_ps() > t1);
    }

    #[test]
    fn tags_attribute_energy() {
        let mut c = ctx();
        c.scoped("tiling", |c| c.read(0, 64 * 1024));
        c.scoped("blit", |c| c.ops(OpMix::scalar(100)));
        let tiling = c.tag("tiling").unwrap();
        let blit = c.tag("blit").unwrap();
        assert!(tiling.energy.data_movement_pj() > 0.0);
        assert_eq!(tiling.energy.compute_pj(), 0.0);
        assert!(blit.energy.compute_pj() > 0.0);
        assert!(c.tag("nope").is_none());
    }

    #[test]
    fn nested_scopes_attribute_to_innermost() {
        let mut c = ctx();
        c.scoped("outer", |c| {
            c.ops(OpMix::scalar(10));
            c.scoped("inner", |c| c.ops(OpMix::scalar(20)));
        });
        assert_eq!(c.tag("outer").unwrap().ops.scalar, 10);
        assert_eq!(c.tag("inner").unwrap().ops.scalar, 20);
    }

    #[test]
    fn untagged_work_lands_in_other() {
        let mut c = ctx();
        c.ops(OpMix::scalar(5));
        assert_eq!(c.tag(OTHER_TAG).unwrap().ops.scalar, 5);
    }

    #[test]
    fn mpki_reflects_streaming_misses() {
        let mut c = ctx();
        // Memory-intensive: stream 1 MB with barely any compute.
        c.read(0, 1 << 20);
        c.ops(OpMix::scalar(1000));
        assert!(c.mpki() > 10.0, "mpki = {}", c.mpki());
    }

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let mut c = ctx();
        let a = c.alloc(100);
        let b = c.alloc(100);
        assert_eq!(a.base() % 4096, 0);
        assert!(b.base() >= a.base() + 4096);
    }

    #[test]
    fn offload_transition_costs_time_and_energy() {
        let mut c = SimContext::new(Platform::pim(), EngineTiming::pim_core(), Port::PimCore);
        let t0 = c.now_ps();
        let e0 = c.total_energy().total_pj();
        c.offload_transition(1 << 20, true);
        assert!(c.now_ps() > t0);
        assert!(c.total_energy().total_pj() > e0);
        c.offload_transition(1 << 20, false);
        assert_eq!(c.coherence_stats().messages, 4);
    }

    #[test]
    fn directory_lookups_counted_for_pim_port() {
        let mut c = SimContext::new(Platform::pim(), EngineTiming::pim_core(), Port::PimCore);
        c.read(0, 64 * 1024);
        assert!(c.coherence_stats().directory_lookups > 0);
    }

    #[test]
    fn scoped_work_becomes_phase_spans() {
        let t = Tracer::new();
        let mut c = ctx().with_tracer(&t);
        c.scoped("texture_tiling", |c| {
            c.mark("tile-start");
            c.read(0, 64 * 1024);
        });
        let names: Vec<String> = t.events().iter().map(|e| e.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "texture_tiling"));
        assert!(names.iter().any(|n| n == "tile-start"));
        assert!(t.tracks().iter().any(|n| n == "kernel-phases"));
        assert!(t.metrics().histograms.contains_key("stall_ps.cpu"));
    }

    #[test]
    fn switch_engine_books_under_the_new_engine() {
        let t = Tracer::new();
        let mut c = SimContext::new(Platform::pim(), EngineTiming::soc_cpu(), Port::Cpu)
            .with_tracer(&t);
        c.read(0, 64);
        c.ops(OpMix::scalar(3));
        c.switch_engine(EngineTiming::pim_core(), Port::PimCore);
        c.read(1 << 20, 64);
        c.read(1 << 21, 64);
        c.ops(OpMix::scalar(5));
        let m = t.metrics();
        let stalls = |engine: &str| m.histograms[&format!("stall_ps.{engine}")].count;
        assert_eq!((stalls("cpu"), stalls("pim-core")), (1, 2));
        assert_eq!((m.counters["ops.cpu"], m.counters["ops.pim-core"]), (3, 5));
    }

    #[test]
    fn faults_leave_instants_on_fault_track() {
        use pim_faults::FaultConfig;
        let t = Tracer::new();
        let plan = FaultPlan::new(
            FaultConfig { vault_fail_prob: 1.0, horizon_ps: 1, ..FaultConfig::none() },
            9,
        )
        .unwrap();
        let mut c = SimContext::new(Platform::pim(), EngineTiming::pim_core(), Port::PimCore)
            .with_tracer(&t)
            .with_fault_plan(plan);
        c.read(0, 4096);
        assert!(c.is_poisoned());
        assert_eq!(t.metrics().counters["faults.tripped"], 1);
        let names: Vec<String> = t.events().iter().map(|e| e.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "vault-failure"), "{names:?}");
    }

    #[test]
    fn time_base_offsets_trace_timestamps_only() {
        let t = Tracer::new();
        let mut c = ctx().with_tracer(&t);
        c.set_time_base(1_000_000);
        c.scoped("work", |c| c.ops(OpMix::scalar(100)));
        assert!(c.now_ps() < 1_000_000);
        let ev = t.events().into_iter().find(|e| e.name == "work").unwrap();
        assert!(ev.ts_ps >= 1_000_000);
    }

    #[test]
    fn disabled_tracer_keeps_results_identical() {
        let run = |traced: bool| {
            let t = Tracer::disabled();
            let mut c = if traced { ctx().with_tracer(&t) } else { ctx() };
            c.scoped("a", |c| {
                c.read(0, 1 << 20);
                c.ops(OpMix::scalar(10_000));
            });
            (c.now_ps(), c.total_energy().total_pj().to_bits(), c.instructions())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn invalid_platform_poisons_instead_of_panicking() {
        let mut platform = Platform::baseline();
        platform.mem.cpu_l1.associativity = 0;
        let mut c = SimContext::cpu_only(platform);
        assert!(c.is_poisoned());
        assert!(matches!(c.error(), Some(DmpimError::InvalidConfig { .. })));
        // Poisoned from birth: no work is simulated, the ledger stays empty.
        c.read(0, 1 << 20);
        c.ops(OpMix::scalar(1000));
        assert_eq!(c.now_ps(), 0);
        assert_eq!(c.instructions(), 0);
    }

    #[test]
    fn cost_breakdown_attributes_each_operation_kind() {
        let mut c = SimContext::new(Platform::pim(), EngineTiming::pim_core(), Port::PimCore);
        assert_eq!(c.cost_breakdown(), CostBreakdown::default());
        c.ops(OpMix::scalar(1000));
        let after_ops = c.cost_breakdown();
        assert!(after_ops.compute_ps > 0.0);
        assert_eq!(after_ops.cache_ps + after_ops.dram_service_ps, 0.0);
        c.read(0, 1 << 20);
        let after_read = c.cost_breakdown();
        assert!(after_read.cache_ps > 0.0);
        assert!(after_read.dram_service_ps > 0.0);
        assert!(after_read.pim_link_ps > 0.0);
        assert_eq!(after_read.dram_queue_ps, 0.0, "pim port never queues off-chip");
        c.offload_transition(1 << 20, true);
        assert!(c.cost_breakdown().coherence_ps > 0.0);
        let shares = c.cost_breakdown().shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{shares:?}");
    }

    #[test]
    fn cost_breakdown_tracks_the_clock() {
        // With no fault plan, attributed time equals elapsed simulated
        // time up to the exposed-stall model's per-access rounding.
        let mut c = ctx();
        c.ops(OpMix::scalar(500));
        c.read(0, 1 << 16);
        c.write(0, 1 << 16);
        let total = c.cost_breakdown().total_ps();
        let now = c.now_ps() as f64;
        assert!((total - now).abs() / now < 1e-6, "{total} vs {now}");
    }

    #[test]
    fn total_energy_sums_tags() {
        let mut c = ctx();
        c.scoped("a", |c| c.ops(OpMix::scalar(10)));
        c.scoped("b", |c| c.ops(OpMix::scalar(10)));
        let total = c.total_energy().total_pj();
        let parts: f64 = c.tag_stats().values().map(|t| t.energy.total_pj()).sum();
        assert!((total - parts).abs() < 1e-9);
    }
}
