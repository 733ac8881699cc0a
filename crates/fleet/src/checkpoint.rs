//! Atomic fleet checkpoints.
//!
//! After each folded batch of shards the sweep persists its entire
//! aggregation state — the tally, completed-shard bitmap, quarantine
//! list, degradation level — as a single JSON document, written with the
//! journal-compaction idiom (`tmp` file → `write_all` → `sync_all` →
//! `rename` → parent-directory sync). A crash at any instant therefore
//! leaves either the previous checkpoint or the new one, never a torn
//! hybrid; a torn write of the `tmp` file aborts before the rename and
//! the old checkpoint survives untouched.
//!
//! Because every sketch merge is exact integer addition and shards are
//! folded in shard-index order, resuming from any checkpoint replays the
//! missing shards into **bit-identical** final state — the chaos matrix
//! in `tests/chaos_matrix.rs` asserts this byte-for-byte across fault
//! families and kill points.

use std::fs::File;
use std::path::Path;

use pim_chaos::{ChaosConfig, ChaosFile, ChaosPlan};
use pim_harness::journal::replace_atomically;
use pim_harness::JournalSink;
use pim_trace::JsonValue;

use crate::sketch::SketchConfig;
use crate::sweep::FleetTally;
use crate::FleetError;

/// Checkpoint file magic.
pub const MAGIC: &str = "pim-fleet";
/// Checkpoint format version. A checkpoint of another version is
/// discarded like any unreadable one, and the sweep recomputes.
pub const VERSION: u64 = 2;

/// The identity of a sweep: a checkpoint may only resume a sweep with the
/// exact same key, otherwise merged state would silently mix populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepKey {
    /// Population seed.
    pub seed: u64,
    /// Devices in the population.
    pub devices: u64,
    /// First absolute device index (nonzero when replaying a shard range).
    pub offset: u64,
    /// Devices per shard.
    pub shard_size: u64,
}

impl SweepKey {
    /// Number of shards the population partitions into.
    pub fn shards(&self) -> u64 {
        self.devices.div_ceil(self.shard_size.max(1))
    }
}

/// Dense completed-shard bitmap, serialized as lowercase hex (bit
/// `i % 8` of byte `i / 8` marks shard `i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBitmap {
    bits: Vec<u8>,
    shards: u64,
}

impl ShardBitmap {
    /// An all-clear bitmap for `shards` shards.
    pub fn new(shards: u64) -> Self {
        Self { bits: vec![0; (shards as usize).div_ceil(8)], shards }
    }

    /// Mark shard `i` complete.
    pub fn set(&mut self, i: u64) {
        if i < self.shards {
            self.bits[(i / 8) as usize] |= 1 << (i % 8);
        }
    }

    /// Is shard `i` complete?
    pub fn get(&self, i: u64) -> bool {
        i < self.shards && self.bits[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// Completed-shard count.
    pub fn count_set(&self) -> u64 {
        self.bits.iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// Hex rendering for the checkpoint document.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.bits.len() * 2);
        for b in &self.bits {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse the hex rendering back for `shards` shards.
    pub fn from_hex(hex: &str, shards: u64) -> Result<Self, FleetError> {
        let mut bm = Self::new(shards);
        if hex.len() != bm.bits.len() * 2 {
            return Err(FleetError::Corrupt(format!(
                "bitmap length {} for {} shards",
                hex.len(),
                shards
            )));
        }
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let txt = std::str::from_utf8(chunk)
                .map_err(|_| FleetError::Corrupt("bitmap not utf8".into()))?;
            bm.bits[i] = u8::from_str_radix(txt, 16)
                .map_err(|_| FleetError::Corrupt(format!("bitmap byte {txt:?}")))?;
        }
        Ok(bm)
    }
}

/// One quarantined shard: everything needed to replay it in isolation
/// (`repro --fleet --devices <devices> --seed <seed> --fleet-offset <start>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Shard index within the sweep.
    pub shard: u64,
    /// First absolute device index of the shard.
    pub start: u64,
    /// Devices in the shard.
    pub devices: u64,
    /// The shard job's deterministic seed (`sweep_seed ^ start`).
    pub seed: u64,
    /// Failure-taxonomy label from the harness.
    pub error_label: String,
}

impl QuarantineRecord {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object()
            .set("shard", self.shard)
            .set("start", self.start)
            .set("devices", self.devices)
            .set("seed", self.seed)
            .set("error_label", self.error_label.as_str())
    }

    fn from_json_value(v: &JsonValue) -> Result<Self, FleetError> {
        let field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| FleetError::Corrupt(format!("quarantine record missing {k}")))
        };
        Ok(Self {
            shard: field("shard")?,
            start: field("start")?,
            devices: field("devices")?,
            seed: field("seed")?,
            error_label: v
                .get("error_label")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string(),
        })
    }
}

/// The complete, mergeable state of a fleet sweep — exactly what a
/// checkpoint persists and a resume restores.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetState {
    /// Sweep identity.
    pub key: SweepKey,
    /// Sketch geometry (frozen at first checkpoint; resume adopts it even
    /// if the budget-derived config differs, so merges stay exact).
    pub sketch_cfg: SketchConfig,
    /// How many times the memory budget degraded the sketch resolution.
    pub degraded_steps: u32,
    /// Completed shards.
    pub completed: ShardBitmap,
    /// Quarantined shards with replayable seeds.
    pub quarantined: Vec<QuarantineRecord>,
    /// Every completed shard's tally, merged.
    pub tally: FleetTally,
}

impl FleetState {
    /// Fresh state for `key` at sketch resolution `cfg`.
    pub fn new(key: SweepKey, cfg: SketchConfig, degraded_steps: u32) -> Self {
        Self {
            key,
            sketch_cfg: cfg,
            degraded_steps,
            completed: ShardBitmap::new(key.shards()),
            quarantined: Vec::new(),
            tally: FleetTally::new(cfg),
        }
    }

    /// Render the checkpoint document (deterministic key order).
    pub fn to_json_value(&self) -> JsonValue {
        let mut quarantined = JsonValue::array();
        for q in &self.quarantined {
            quarantined = quarantined.push(q.to_json_value());
        }
        JsonValue::object()
            .set("fleet", MAGIC)
            .set("version", VERSION)
            .set("seed", self.key.seed)
            .set("devices", self.key.devices)
            .set("offset", self.key.offset)
            .set("shard_size", self.key.shard_size)
            .set(
                "sketch",
                JsonValue::object()
                    .set("sub_bits", u64::from(self.sketch_cfg.sub_bits))
                    .set("cm_width", self.sketch_cfg.cm_width as u64)
                    .set("cm_depth", self.sketch_cfg.cm_depth as u64),
            )
            .set("degraded_steps", u64::from(self.degraded_steps))
            .set("completed", self.completed.to_hex().as_str())
            .set("quarantined", quarantined)
            .set("tally", self.tally.to_json_value())
    }

    /// Parse a checkpoint document and validate it against the sweep key.
    ///
    /// Structural damage, including a tally whose geometry disagrees
    /// with the document's `sketch` block, is [`FleetError::Corrupt`]
    /// (callers warn and start fresh — recomputing is always safe); a
    /// well-formed document for a *different* sweep is
    /// [`FleetError::Mismatch`] (fatal: the caller is pointing at the
    /// wrong file).
    pub fn parse(text: &str, expect: &SweepKey) -> Result<Self, FleetError> {
        let doc = JsonValue::parse(text)
            .map_err(|e| FleetError::Corrupt(format!("checkpoint parse: {e}")))?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| FleetError::Corrupt(format!("checkpoint missing {k}")))
        };
        if doc.get("fleet").and_then(JsonValue::as_str) != Some(MAGIC) {
            return Err(FleetError::Corrupt("checkpoint magic".into()));
        }
        if num("version")? != VERSION {
            return Err(FleetError::Corrupt("checkpoint version".into()));
        }
        let key = SweepKey {
            seed: num("seed")?,
            devices: num("devices")?,
            offset: num("offset")?,
            shard_size: num("shard_size")?,
        };
        if key != *expect {
            return Err(FleetError::Mismatch(format!(
                "checkpoint is for seed={} devices={} offset={} shard_size={}, \
                 sweep wants seed={} devices={} offset={} shard_size={}",
                key.seed,
                key.devices,
                key.offset,
                key.shard_size,
                expect.seed,
                expect.devices,
                expect.offset,
                expect.shard_size
            )));
        }
        let sketch = doc
            .get("sketch")
            .ok_or_else(|| FleetError::Corrupt("checkpoint missing sketch".into()))?;
        let snum = |k: &str| {
            sketch
                .get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| FleetError::Corrupt(format!("checkpoint sketch missing {k}")))
        };
        let sketch_cfg = SketchConfig {
            sub_bits: u32::try_from(snum("sub_bits")?)
                .map_err(|_| FleetError::Corrupt("sketch sub_bits".into()))?,
            cm_width: usize::try_from(snum("cm_width")?)
                .map_err(|_| FleetError::Corrupt("sketch cm_width".into()))?,
            cm_depth: usize::try_from(snum("cm_depth")?)
                .map_err(|_| FleetError::Corrupt("sketch cm_depth".into()))?,
        };
        let completed = ShardBitmap::from_hex(
            doc.get("completed")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| FleetError::Corrupt("checkpoint missing completed".into()))?,
            key.shards(),
        )?;
        let mut quarantined = Vec::new();
        for q in doc
            .get("quarantined")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| FleetError::Corrupt("checkpoint missing quarantined".into()))?
        {
            quarantined.push(QuarantineRecord::from_json_value(q)?);
        }
        let tally = doc
            .get("tally")
            .ok_or_else(|| FleetError::Corrupt("checkpoint missing tally".into()))?;
        let degraded_steps = u32::try_from(num("degraded_steps")?)
            .map_err(|_| FleetError::Corrupt("degraded_steps".into()))?;
        let mut state = Self::new(key, sketch_cfg, degraded_steps);
        // The stored tally is merged into the empty one of the geometry
        // `sketch_cfg` gives, which is what every resumed shard produces:
        // a tally that disagrees with it is damage here, not a failed
        // merge at the resumed sweep's first shard.
        FleetTally::from_json_value(tally)
            .and_then(|t| state.tally.merge(&t))
            .map_err(|e| FleetError::Corrupt(format!("checkpoint {e}")))?;
        state.completed = completed;
        state.quarantined = quarantined;
        Ok(state)
    }
}

/// Atomically replace the checkpoint at `path` with `state`.
///
/// `chaos` (config, seed) injects write faults into the `tmp`-file sink
/// for the durability matrix; `write_idx` salts the plan so each
/// checkpoint write draws an independent fault stream. Any failure —
/// injected or real — leaves the previous checkpoint intact because the
/// rename only happens after a fully synced `tmp` write.
pub fn write_checkpoint(
    path: &Path,
    state: &FleetState,
    chaos: Option<(ChaosConfig, u64)>,
    write_idx: u64,
) -> Result<(), FleetError> {
    let mut text = state.to_json_value().render();
    text.push('\n');
    replace_atomically(path, text.as_bytes(), |tmp| -> std::io::Result<Box<dyn JournalSink>> {
        Ok(match chaos {
            Some((cfg, seed)) => {
                Box::new(ChaosFile::create(tmp, ChaosPlan::fork(cfg, seed, write_idx))?)
            }
            None => Box::new(File::create(tmp)?),
        })
    })
    .map_err(|(failed, e)| FleetError::Io {
        path: failed.display().to_string(),
        detail: e.to_string(),
    })
}

/// Load the checkpoint at `path` for the sweep identified by `expect`.
///
/// Returns `Ok(None)` when no checkpoint exists (fresh sweep);
/// `Err(Corrupt)` when the file is unreadable or structurally damaged
/// (callers warn and recompute); `Err(Mismatch)` when it belongs to a
/// different sweep (fatal).
pub fn load_checkpoint(path: &Path, expect: &SweepKey) -> Result<Option<FleetState>, FleetError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(FleetError::Corrupt(format!(
                "checkpoint {} unreadable: {e}",
                path.display()
            )))
        }
    };
    FleetState::parse(&text, expect).map(Some)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::profile::sample_profile;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim-fleet-ckpt-{name}-{}", std::process::id()));
        p
    }

    fn sample_state() -> FleetState {
        let key = SweepKey { seed: 7, devices: 1000, offset: 0, shard_size: 100 };
        let mut s = FleetState::new(key, SketchConfig::default(), 1);
        for (d, v) in [9_000u64, 14_500, 15_000, 8_000, 19_000].into_iter().enumerate() {
            s.tally.observe(v, &sample_profile(7, d as u64));
        }
        s.completed.set(0);
        s.completed.set(3);
        s.quarantined.push(QuarantineRecord {
            shard: 5,
            start: 500,
            devices: 100,
            seed: 7 ^ 500,
            error_label: "watchdog-timeout".into(),
        });
        s
    }

    #[test]
    fn bitmap_round_trips_and_counts() {
        let mut bm = ShardBitmap::new(19);
        for i in [0u64, 7, 8, 18] {
            bm.set(i);
        }
        assert_eq!(bm.count_set(), 4);
        assert!(bm.get(8));
        assert!(!bm.get(9));
        let back = ShardBitmap::from_hex(&bm.to_hex(), 19).unwrap();
        assert_eq!(bm, back);
        assert!(ShardBitmap::from_hex("zz", 19).is_err());
        assert!(ShardBitmap::from_hex("00", 19).is_err(), "wrong length");
    }

    #[test]
    fn checkpoint_round_trips_bit_identically() {
        let state = sample_state();
        let path = temp_path("roundtrip");
        write_checkpoint(&path, &state, None, 0).unwrap();
        let back = load_checkpoint(&path, &state.key).unwrap().unwrap();
        assert_eq!(state, back);
        assert_eq!(
            state.to_json_value().render(),
            back.to_json_value().render(),
            "re-rendered checkpoint must be byte-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_checkpoint_is_a_fresh_start() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let key = SweepKey { seed: 1, devices: 10, offset: 0, shard_size: 5 };
        assert_eq!(load_checkpoint(&path, &key).unwrap(), None);
    }

    #[test]
    fn wrong_sweep_is_a_mismatch_corrupt_doc_is_corrupt() {
        let state = sample_state();
        let path = temp_path("mismatch");
        write_checkpoint(&path, &state, None, 0).unwrap();
        let other = SweepKey { seed: 8, ..state.key };
        assert!(matches!(load_checkpoint(&path, &other), Err(FleetError::Mismatch(_))));
        std::fs::write(&path, "{\"fleet\":\"pim-fleet\",\"version\":2,").unwrap();
        assert!(matches!(load_checkpoint(&path, &state.key), Err(FleetError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tmp_write_leaves_previous_checkpoint_intact() {
        let state = sample_state();
        let path = temp_path("torn");
        write_checkpoint(&path, &state, None, 0).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut newer = state.clone();
        newer.tally.observe(12_000, &sample_profile(7, 400));
        newer.completed.set(4);
        // Torn-write chaos on the tmp sink: some seeds fail the write; the
        // visible checkpoint must never change on failure.
        let mut failures = 0;
        for seed in 0..32u64 {
            match write_checkpoint(&path, &newer, Some((ChaosConfig::torn_writes(), seed)), seed) {
                Ok(()) => {
                    let now = std::fs::read_to_string(&path).unwrap();
                    let back = FleetState::parse(&now, &state.key).unwrap();
                    assert_eq!(back, newer, "successful write must be complete");
                    // Restore the old file for the next iteration.
                    std::fs::write(&path, &before).unwrap();
                }
                Err(_) => {
                    failures += 1;
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        before,
                        "failed write must leave the old checkpoint untouched"
                    );
                }
            }
        }
        assert!(failures > 0, "torn-write family should fail some seeds");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{}.tmp", path.display()));
    }
}
