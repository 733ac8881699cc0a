//! Cross-workload summaries: Table 1, the headline averages, and the
//! §3.2/§3.3 identification + area feasibility report.

use pim_core::area::{AreaModel, PimTargetKind, PIM_CORE_MM2};
use pim_core::identify::{evaluate, CandidateProfile};
use pim_core::report::mean;
use pim_core::{Kernel, OffloadEngine, Platform, RunReport};

use crate::scorecard::PAPER_ACC_SPEEDUP;

/// Table 1: the evaluated system configuration.
pub fn table1() -> String {
    format!(
        "Table 1 — evaluated system configuration\n\nBaseline platform:\n{}\nPIM platform:\n{}",
        Platform::baseline().table1(),
        Platform::pim().table1()
    )
}

/// Every PIM-target kernel with its workload, for aggregate sweeps.
/// The catalog itself lives in [`crate::jobs`] so the harness-driven
/// scorecard sweep and these serial summaries measure identical inputs.
pub(crate) fn all_kernels() -> Vec<(&'static str, PimTargetKind, Box<dyn Kernel>)> {
    crate::jobs::kernel_catalog(false)
        .into_iter()
        .map(|(name, kind, factory)| (name, kind, factory()))
        .collect()
}

pub(crate) fn sweep() -> Vec<(&'static str, PimTargetKind, Vec<RunReport>)> {
    let engine = OffloadEngine::new();
    // The fourth report per kernel is PIM-Core as a 4-core per-vault
    // cluster (Table 1 provides 16; 4 is a conservative mid-point).
    let cluster = OffloadEngine::new().with_pim_cluster(4);
    all_kernels()
        .into_iter()
        .map(|(name, kind, mut k)| {
            let mut reports = engine.run_all(k.as_mut());
            reports.push(cluster.run(k.as_mut(), pim_core::ExecutionMode::PimCore));
            (name, kind, reports)
        })
        .collect()
}

/// The paper's §1/§12 headline numbers across every PIM target.
pub fn headline() -> String {
    let results = sweep();
    let mut core_energy = Vec::new();
    let mut acc_energy = Vec::new();
    let mut core_speed = Vec::new();
    let mut core4_speed = Vec::new();
    let mut acc_speed = Vec::new();
    let mut dm = Vec::new();
    let mut out = String::from("Headline summary across all PIM targets\n\n");
    out.push_str(&format!(
        "{:<26}{:>10}{:>10}{:>10}{:>10}{:>10}{:>9}\n",
        "kernel", "E core", "E acc", "S core", "S core*4", "S acc", "DM frac"
    ));
    for (name, _, r) in &results {
        let (cpu, core, acc, core4) = (&r[0], &r[1], &r[2], &r[3]);
        core_energy.push(core.energy_vs(cpu));
        acc_energy.push(acc.energy_vs(cpu));
        core_speed.push(core.speedup_vs(cpu));
        core4_speed.push(core4.speedup_vs(cpu));
        acc_speed.push(acc.speedup_vs(cpu));
        dm.push(cpu.energy.data_movement_fraction());
        out.push_str(&format!(
            "{:<26}{:>10.3}{:>10.3}{:>9.2}x{:>9.2}x{:>9.2}x{:>8.1}%\n",
            name,
            core.energy_vs(cpu),
            acc.energy_vs(cpu),
            core.speedup_vs(cpu),
            core4.speedup_vs(cpu),
            acc.speedup_vs(cpu),
            100.0 * cpu.energy.data_movement_fraction()
        ));
    }
    out.push_str(&format!(
        "\nAVG CPU-only data-movement share: {:.1}% (paper: 62.7% across workloads)\n\
         AVG PIM-Core: energy -{:.1}% (paper: 49.1%), speedup {:.2}x single-core / {:.2}x\n\
           as a 4-core per-vault cluster (paper: 1.45x avg, up to 2.2x)\n\
         AVG PIM-Acc:  energy -{:.1}% (paper: 55.4%), speedup {:.2}x (paper: {PAPER_ACC_SPEEDUP:.2}x avg, up to 2.5x)\n",
        100.0 * mean(&dm),
        100.0 * (1.0 - mean(&core_energy)),
        mean(&core_speed),
        mean(&core4_speed),
        100.0 * (1.0 - mean(&acc_energy)),
        mean(&acc_speed),
    ));
    out
}

/// The §3.2 identification pipeline + §3.3 area feasibility for every
/// target, with profiles measured from the kernel sweeps.
pub fn area() -> String {
    let area = AreaModel::default();
    let results = sweep();
    let mut out = String::from("PIM-target identification (§3.2) and area feasibility (§3.3)\n\n");
    out.push_str(&format!(
        "PIM core: {:.2} mm² = {:.1}% of the per-vault budget (paper: <=9.4%)\n\n",
        PIM_CORE_MM2,
        100.0 * area.pim_core_fraction()
    ));
    for (name, kind, r) in &results {
        let (cpu, core, acc) = (&r[0], &r[1], &r[2]);
        let best_pim = core.runtime_ps.min(acc.runtime_ps);
        let profile = CandidateProfile {
            name: (*name).to_string(),
            // Workload-level fractions come from the characterization
            // figures; the kernel sweeps establish >5% for every target.
            workload_energy_fraction: 0.10,
            workload_dm_fraction: 0.08,
            mpki: cpu.mpki,
            own_dm_fraction: cpu.energy.data_movement_fraction(),
            pim_slowdown: best_pim as f64 / cpu.runtime_ps as f64,
            accel_area_mm2: kind.accelerator_mm2(),
        };
        let verdict = evaluate(&profile, &area);
        out.push_str(&format!(
            "{name}: accelerator {:.2} mm² = {:.1}% of vault budget — {}",
            kind.accelerator_mm2(),
            100.0 * area.fraction_of_vault(kind.accelerator_mm2()),
            verdict
        ));
    }
    out.push_str(
        "\nNote: motion estimation's measured MPKI and data-movement share sit\n\
         below the paper's thresholds in this reproduction (the SIMD SAD\n\
         cost model is conservative and the microbenchmark's reference\n\
         working set partially fits the LLC); the paper's own counters\n\
         classify it as memory-intensive. See EXPERIMENTS.md.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use pim_chrome::tiling::TextureTilingKernel;

    use super::*;

    #[test]
    fn table1_covers_both_platforms() {
        let t = table1();
        assert!(t.contains("LPDDR3"));
        assert!(t.contains("16 vaults"));
    }

    #[test]
    fn kernel_catalog_covers_all_targets() {
        assert_eq!(all_kernels().len(), 9);
    }

    #[test]
    fn headline_shape_on_a_fast_subset() {
        // Avoid the full 4K sweep in tests: run two cheap kernels and
        // check the aggregate direction.
        let engine = OffloadEngine::new();
        let mut k = TextureTilingKernel::new(128, 128, 1);
        let r = engine.run_all(&mut k);
        assert!(r[1].energy_vs(&r[0]) < 1.0);
        assert!(r[2].speedup_vs(&r[0]) >= r[1].speedup_vs(&r[0]) * 0.9);
    }
}
