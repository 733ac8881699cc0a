//! Fleet-checkpoint chaos matrix.
//!
//! Crosses the `pim-chaos` fault families (torn writes, retryable-noise
//! storms, disk-full onsets) injected into checkpoint writes with
//! SIGKILL-style interruption at varying shard counts, across many
//! seeds (`PIM_CHAOS_SEEDS`, default 64). The invariant under every
//! schedule: after the final resumed run completes, the rendered fleet
//! report is **byte-identical** to an uninterrupted, chaos-free sweep.
//! Torn tmp-file writes may only ever sacrifice checkpoint freshness
//! (more recompute on resume), never correctness.

use std::path::PathBuf;

use pim_chaos::ChaosConfig;
use pim_fleet::{fleet_report, run_fleet, FleetConfig};
use pim_trace::Tracer;

fn seeds() -> u64 {
    std::env::var("PIM_CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

fn temp_path(tag: &str, seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pim-fleet-chaos-{tag}-{seed}-{}", std::process::id()));
    p
}

fn base_cfg(ckpt: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        seed: 7,
        devices: 2_000,
        shard_size: 100,
        workers: 2,
        checkpoint: ckpt,
        ..FleetConfig::default()
    }
}

/// The ground truth every schedule must reproduce byte-for-byte.
fn reference_report() -> String {
    let out = run_fleet(&base_cfg(None), &Tracer::disabled()).unwrap();
    fleet_report(&out.state).render()
}

fn run_family(tag: &str, family: fn(u64) -> ChaosConfig) {
    let reference = reference_report();
    let shards = base_cfg(None).key().shards();
    let mut resumed_at_least_once = false;
    for seed in 0..seeds() {
        let ckpt = temp_path(tag, seed);
        let _ = std::fs::remove_file(&ckpt);
        let chaos = Some((family(seed), seed));

        // Run 1: chaos on every checkpoint write, killed after a
        // seed-dependent number of shards (mid-batch kills included).
        let kill_after = seed % shards + 1;
        let killed = run_fleet(
            &FleetConfig {
                checkpoint_chaos: chaos,
                stop_after_shards: Some(kill_after),
                ..base_cfg(Some(ckpt.clone()))
            },
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(killed.stopped_early, "{tag} seed {seed}");

        // Run 2: resume (still under write chaos) to completion.
        let resumed = run_fleet(
            &FleetConfig { checkpoint_chaos: chaos, ..base_cfg(Some(ckpt.clone())) },
            &Tracer::disabled(),
        )
        .unwrap();
        if resumed.resumed_shards > 0 {
            resumed_at_least_once = true;
        }
        assert_eq!(resumed.state.tally.devices(), 2_000, "{tag} seed {seed}");
        assert_eq!(
            fleet_report(&resumed.state).render(),
            reference,
            "{tag} seed {seed}: kill at {kill_after} + resume must be byte-identical"
        );

        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(format!("{}.tmp", ckpt.display()));
    }
    assert!(
        resumed_at_least_once,
        "{tag}: no schedule ever restored checkpoint state — matrix is vacuous"
    );
}

#[test]
fn torn_checkpoint_writes_resume_byte_identically() {
    run_family("torn", |_| ChaosConfig::torn_writes());
}

#[test]
fn interrupt_storms_on_checkpoint_writes_resume_byte_identically() {
    run_family("interrupts", |_| ChaosConfig::interrupts());
}

#[test]
fn disk_full_mid_checkpoint_resumes_byte_identically() {
    // Onset varies with the seed so some schedules lose the checkpoint
    // entirely (pure recompute) and some keep a stale one.
    run_family("diskfull", |seed| ChaosConfig::disk_full(200 + seed * 37));
}

#[test]
fn sigkill_without_write_chaos_at_every_batch_boundary() {
    let reference = reference_report();
    let shards = base_cfg(None).key().shards();
    for kill_after in 1..=shards {
        let ckpt = temp_path("kill", kill_after);
        let _ = std::fs::remove_file(&ckpt);
        let killed = run_fleet(
            &FleetConfig {
                stop_after_shards: Some(kill_after),
                ..base_cfg(Some(ckpt.clone()))
            },
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(killed.stopped_early || kill_after >= shards);
        let resumed =
            run_fleet(&base_cfg(Some(ckpt.clone())), &Tracer::disabled()).unwrap();
        assert_eq!(
            fleet_report(&resumed.state).render(),
            reference,
            "kill after {kill_after} shards"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn resume_adopts_checkpoint_geometry_over_a_changed_budget() {
    // A checkpoint written at full resolution must keep that resolution
    // on resume even when the new run's memory budget would degrade it —
    // otherwise merges would mix geometries and break exactness.
    let ckpt = temp_path("geometry", 0);
    let _ = std::fs::remove_file(&ckpt);
    let first = run_fleet(
        &FleetConfig { stop_after_shards: Some(8), ..base_cfg(Some(ckpt.clone())) },
        &Tracer::disabled(),
    )
    .unwrap();
    let full_bits = first.state.sketch_cfg.sub_bits;
    let resumed = run_fleet(
        &FleetConfig { mem_budget_bytes: 64 << 10, ..base_cfg(Some(ckpt.clone())) },
        &Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(resumed.state.sketch_cfg.sub_bits, full_bits);
    assert_eq!(
        fleet_report(&resumed.state).render(),
        reference_report(),
        "geometry adoption must preserve byte-identity"
    );
    let _ = std::fs::remove_file(&ckpt);
}
