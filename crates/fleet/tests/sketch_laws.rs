//! Algebraic laws of the fleet sketches, exercised with SplitMix64
//! adversarial streams.
//!
//! The crash-recovery guarantee of `pim-fleet` rests entirely on two
//! properties: sketch merges are **exactly associative and commutative**
//! (so any partition of the population folds to bit-identical state),
//! and quantile answers stay within the advertised **relative error
//! bound** `2^-sub_bits`. This suite attacks both with heavy-tailed,
//! clustered, and constant streams.

use pim_fleet::{CountMinSketch, QuantileSketch, SketchConfig};
use pim_faults::SplitMix64;

/// Adversarial value streams: the shapes most likely to expose bucket
/// boundary or merge bugs.
fn streams(seed: u64, n: usize) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut uniform = Vec::with_capacity(n);
    let mut heavy_tail = Vec::with_capacity(n);
    let mut clustered = Vec::with_capacity(n);
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        uniform.push(rng.next_below(20_000));
        // Exponential-ish tail: value magnitude spans ~2^0..2^60.
        let shift = rng.next_below(60) as u32;
        heavy_tail.push(rng.next_u64() >> shift);
        // Tight cluster around one bucket boundary.
        clustered.push(9_990 + rng.next_below(20));
        // Exact powers of two and neighbors: bucket-edge torture.
        let e = rng.next_below(63) as u32;
        edges.push((1u64 << e) + rng.next_below(3) - 1);
    }
    vec![uniform, heavy_tail, clustered, edges, vec![0; n], vec![u64::MAX; n]]
}

#[test]
fn quantile_merge_is_associative_and_commutative() {
    for seed in 0..8u64 {
        for stream in streams(seed, 3_000) {
            let chunks: Vec<&[u64]> = stream.chunks(700).collect();
            let parts: Vec<QuantileSketch> = chunks
                .iter()
                .map(|c| {
                    let mut s = QuantileSketch::new(6);
                    for &v in *c {
                        s.observe(v);
                    }
                    s
                })
                .collect();

            // Left fold, right fold, and reversed-order fold must agree
            // exactly (not just approximately).
            let mut left = QuantileSketch::new(6);
            for p in &parts {
                left.merge(p).unwrap();
            }
            let mut right = QuantileSketch::new(6);
            for p in parts.iter().rev() {
                right.merge(p).unwrap();
            }
            // ((a ∪ b) ∪ c) vs (a ∪ (b ∪ c)) on the first three parts.
            if parts.len() >= 3 {
                let mut ab = parts[0].clone();
                ab.merge(&parts[1]).unwrap();
                let mut ab_c = ab.clone();
                ab_c.merge(&parts[2]).unwrap();
                let mut bc = parts[1].clone();
                bc.merge(&parts[2]).unwrap();
                let mut a_bc = parts[0].clone();
                a_bc.merge(&bc).unwrap();
                assert_eq!(ab_c, a_bc, "associativity (seed {seed})");
            }
            assert_eq!(left, right, "commutativity (seed {seed})");
            assert_eq!(
                left.to_json_value().render(),
                right.to_json_value().render(),
                "serialized state must also be byte-identical"
            );

            // Merged == observed-serially.
            let mut serial = QuantileSketch::new(6);
            for &v in &stream {
                serial.observe(v);
            }
            assert_eq!(left, serial, "merge must equal serial observation (seed {seed})");
        }
    }
}

#[test]
fn quantile_error_stays_within_bound_under_adversarial_streams() {
    for seed in 0..8u64 {
        for m in [3u32, 6, 8] {
            for mut stream in streams(seed.wrapping_mul(97) + 13, 4_000) {
                let mut s = QuantileSketch::new(m);
                for &v in &stream {
                    s.observe(v);
                }
                stream.sort_unstable();
                let bound = s.relative_error_bound();
                for q in [0.01f64, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                    let rank = ((q * stream.len() as f64).ceil() as usize)
                        .clamp(1, stream.len());
                    let exact = stream[rank - 1];
                    let est = s.quantile(q);
                    // Bucket lower bound: est ≤ exact < est·(1+2^-m),
                    // i.e. exact − est ≤ exact · 2^-m (+1 for integer
                    // truncation at tiny values).
                    assert!(est <= exact, "q={q} est={est} exact={exact} (m={m} seed={seed})");
                    let err = (exact - est) as f64;
                    assert!(
                        err <= exact as f64 * bound + 1.0,
                        "q={q}: err {err} over bound {} (exact {exact}, m={m}, seed={seed})",
                        exact as f64 * bound
                    );
                }
            }
        }
    }
}

#[test]
fn count_min_merge_is_commutative_and_never_undercounts() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(seed ^ 0xDEAD_BEEF);
        let stream: Vec<u64> = (0..5_000).map(|_| rng.next_below(21_000)).collect();
        let cfg = SketchConfig::default();

        let quarters: Vec<CountMinSketch> = stream
            .chunks(1_250)
            .map(|c| {
                let mut cm = CountMinSketch::new(cfg.cm_width, cfg.cm_depth);
                for &v in c {
                    cm.increment(&format!("tok-{}", v % 17), 1);
                }
                cm
            })
            .collect();

        let mut fwd_cm = CountMinSketch::new(cfg.cm_width, cfg.cm_depth);
        for cm in &quarters {
            fwd_cm.merge(cm).unwrap();
        }
        let mut rev_cm = CountMinSketch::new(cfg.cm_width, cfg.cm_depth);
        for cm in quarters.iter().rev() {
            rev_cm.merge(cm).unwrap();
        }
        assert_eq!(fwd_cm, rev_cm, "count-min commutativity (seed {seed})");

        // Count-min never under-counts any token after merging.
        for t in 0..17u64 {
            let key = format!("tok-{t}");
            let exact = stream.iter().filter(|&&v| v % 17 == t).count() as u64;
            assert!(
                fwd_cm.estimate(&key) >= exact,
                "{key}: est {} < exact {exact} (seed {seed})",
                fwd_cm.estimate(&key)
            );
        }
    }
}

#[test]
fn degraded_geometry_still_obeys_its_weaker_bound() {
    // Degrading the config doubles the error bound but must never break
    // the bound that the degraded geometry itself advertises.
    let mut cfg = SketchConfig::default();
    cfg.degrade();
    cfg.degrade();
    let mut rng = SplitMix64::new(31);
    let mut stream: Vec<u64> = (0..3_000).map(|_| rng.next_u64() >> (rng.next_below(50) as u32)).collect();
    let mut s = QuantileSketch::new(cfg.sub_bits);
    for &v in &stream {
        s.observe(v);
    }
    stream.sort_unstable();
    let bound = s.relative_error_bound();
    assert!(bound > QuantileSketch::new(SketchConfig::default().sub_bits).relative_error_bound());
    for q in [0.5f64, 0.9, 0.99] {
        let rank = ((q * stream.len() as f64).ceil() as usize).clamp(1, stream.len());
        let exact = stream[rank - 1];
        let est = s.quantile(q);
        assert!(est <= exact);
        assert!((exact - est) as f64 <= exact as f64 * bound + 1.0);
    }
}
