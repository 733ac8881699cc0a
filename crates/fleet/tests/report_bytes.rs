//! Pinned bytes of the fleet report: 50,000-device sweeps at three seeds
//! must render reports that hash to recorded constants, on one worker and
//! on two. Every other fleet test compares runs with each other, so a
//! change to the sampler, the energy model or the sketches that moves
//! every device alike passes them; this compares each run with every
//! earlier build, so such a change fails here.

use pim_fleet::{fleet_report, run_fleet, FleetConfig};
use pim_trace::Tracer;

const DEVICES: u64 = 50_000;

/// `(seed, FNV-1a of fleet_report(&state).render())`. Recorded before the
/// energy model was evaluated from precomputed terms, which may not move
/// a byte.
const PINNED: [(u64, u64); 3] =
    [(1, 0xa505_d9f8_ac83_bad6), (7, 0x379a_7b6c_f41c_abfd), (29, 0x6bcd_5390_9513_fc0e)];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn fleet_report_bytes_are_pinned() {
    let mut got = Vec::new();
    for (seed, _) in PINNED {
        for workers in [1, 2] {
            let cfg = FleetConfig { seed, devices: DEVICES, workers, ..FleetConfig::default() };
            let out = run_fleet(&cfg, &Tracer::disabled()).unwrap();
            assert_eq!(out.state.tally.devices(), DEVICES, "seed {seed} on {workers} workers");
            let digest = fnv1a(fleet_report(&out.state).render().as_bytes());
            got.push((seed, workers, digest));
        }
    }
    let want: Vec<(u64, usize, u64)> =
        PINNED.iter().flat_map(|&(seed, d)| [(seed, 1, d), (seed, 2, d)]).collect();
    assert_eq!(got, want);
}
