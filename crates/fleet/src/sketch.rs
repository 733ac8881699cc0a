//! Constant-memory, exactly-mergeable sketches for population sweeps.
//!
//! Every sketch in this module keeps **only integer state** (`u64`
//! counts, wrapping sums). Integer addition is exactly associative and
//! commutative, so folding shard sketches in any order — serial, across
//! a worker pool, or split over a checkpoint/resume boundary — produces
//! bit-identical final state. That property is what lets a SIGKILLed
//! fleet sweep resume from its last checkpoint and still render a
//! byte-identical report.
//!
//! Two shapes:
//!
//! * [`QuantileSketch`] — HDR-style log₂ × linear sub-bucket histogram.
//!   Bucket width within the octave of a value `v ≥ 2^(m+1)` is
//!   `2^(h-m)` for `h = ⌊log₂ v⌋`, so the reported quantile `Q`
//!   satisfies `Q ≤ v < Q · (1 + 2^-m)`: relative error ≤ `2^-m` for
//!   sub-bucket resolution `m` (values below `2^(m+1)` are exact).
//! * [`CountMinSketch`] — `depth × width` counter matrix with
//!   SplitMix64-derived row hashes for config → regression attribution.
//!   Estimates over-count, never under-count.
//!
//! The sweep's threshold counts ("how many devices see ≥ 40%
//! reduction", "how many regress") need no sketch: they are exact
//! counters beside these two in [`crate::FleetTally`].

use pim_faults::SplitMix64;
use pim_trace::JsonValue;

/// Resolution knobs of the two sketches, chosen once per sweep from the
/// memory budget and then frozen into every checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Sub-bucket bits of the quantile sketch: `2^sub_bits` linear
    /// buckets per octave, relative error ≤ `2^-sub_bits`.
    pub sub_bits: u32,
    /// Count-min width (always a power of two).
    pub cm_width: usize,
    /// Count-min depth (rows / independent hashes).
    pub cm_depth: usize,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self { sub_bits: 6, cm_width: 1024, cm_depth: 4 }
    }
}

impl SketchConfig {
    /// Estimated resident bytes of one tally's sketches at this
    /// resolution.
    pub fn tally_bytes(&self) -> u64 {
        let q = QuantileSketch::bucket_count(self.sub_bits) as u64 * 8;
        let cm = (self.cm_width * self.cm_depth) as u64 * 8;
        q + cm
    }

    /// Halve the resolution one step (quantile error doubles, count-min
    /// collisions double). Returns false once at the floor.
    pub fn degrade(&mut self) -> bool {
        if self.sub_bits > 2 {
            self.sub_bits -= 1;
            self.cm_width = (self.cm_width / 2).max(64);
            true
        } else {
            false
        }
    }
}

/// Errors from sketch deserialization / merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Two sketches with different geometry cannot merge exactly.
    Mismatch(String),
    /// Serialized state failed to parse.
    Corrupt(String),
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::Mismatch(what) => write!(f, "sketch geometry mismatch: {what}"),
            SketchError::Corrupt(what) => write!(f, "corrupt sketch state: {what}"),
        }
    }
}

impl std::error::Error for SketchError {}

/// HDR-style streaming quantile sketch over `u64` values.
///
/// Values `< 2^(m+1)` index their own bucket (exact); a larger value
/// with high bit `h` lands in octave `h - m`, sub-bucket
/// `(v >> (h - m)) - 2^m`. All state is `u64` counts plus a wrapping
/// sum, so [`QuantileSketch::merge`] is exactly associative and
/// commutative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    sub_bits: u32,
    counts: Vec<u64>,
    count: u64,
    /// Wrapping sum of observations (wrapping addition is associative and
    /// commutative, keeping merges exact even at the edge).
    sum: u64,
}

impl QuantileSketch {
    /// An empty sketch with `2^sub_bits` sub-buckets per octave.
    /// `sub_bits` is clamped to `[1, 16]`.
    pub fn new(sub_bits: u32) -> Self {
        let m = sub_bits.clamp(1, 16);
        Self { sub_bits: m, counts: vec![0; Self::bucket_count(m)], count: 0, sum: 0 }
    }

    /// Total dense buckets at resolution `m`: the exact region
    /// `[0, 2^(m+1))` plus `(63 - m)` octaves of `2^m` sub-buckets.
    pub fn bucket_count(m: u32) -> usize {
        let m = m.clamp(1, 16);
        (1usize << (m + 1)) + (63 - m as usize) * (1usize << m)
    }

    /// The sketch's sub-bucket resolution.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// Guaranteed relative error bound: `2^-sub_bits`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    fn bucket_index(&self, v: u64) -> usize {
        let m = self.sub_bits;
        if v < (1u64 << (m + 1)) {
            v as usize
        } else {
            let h = 63 - v.leading_zeros();
            let octave = (h - m) as usize;
            let within = ((v >> (h - m)) - (1u64 << m)) as usize;
            (1usize << (m + 1)) + (octave - 1) * (1usize << m) + within
        }
    }

    /// Lower bound of the value range covered by bucket `idx` — the value
    /// reported for quantiles landing in that bucket.
    fn bucket_lower(&self, idx: usize) -> u64 {
        let m = self.sub_bits as usize;
        let exact = 1usize << (m + 1);
        if idx < exact {
            idx as u64
        } else {
            let rel = idx - exact;
            let octave = rel / (1 << m) + 1;
            let within = (rel % (1 << m)) as u64;
            ((1u64 << m) + within) << octave
        }
    }

    /// Fold one observation in.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Exact merge (bucket-wise addition). Errors when geometries differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.sub_bits != other.sub_bits {
            return Err(SketchError::Mismatch(format!(
                "quantile sub_bits {} vs {}",
                self.sub_bits, other.sub_bits
            )));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        Ok(())
    }

    /// Value at quantile `q ∈ [0, 1]`: the bucket lower bound at rank
    /// `⌈q·count⌉` (rank 1 minimum). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return self.bucket_lower(idx);
            }
        }
        0
    }

    /// Serialize as a JSON object with sparse `[index, count, …]` pairs.
    pub fn to_json_value(&self) -> JsonValue {
        let mut buckets = JsonValue::array();
        for (idx, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                buckets = buckets.push(idx as u64).push(c);
            }
        }
        JsonValue::object()
            .set("m", u64::from(self.sub_bits))
            .set("count", self.count)
            .set("sum", self.sum)
            .set("buckets", buckets)
    }

    /// Inverse of [`QuantileSketch::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, SketchError> {
        // Refused, not clamped like `new` does: a clamped `m` would read
        // the stored bucket indices at another resolution.
        let m = v
            .get("m")
            .and_then(JsonValue::as_u64)
            .and_then(|m| u32::try_from(m).ok())
            .filter(|m| (1..=16).contains(m))
            .ok_or_else(|| SketchError::Corrupt("quantile sketch m".into()))?;
        let mut s = Self::new(m);
        s.count = v
            .get("count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| SketchError::Corrupt("quantile sketch missing count".into()))?;
        s.sum = v
            .get("sum")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| SketchError::Corrupt("quantile sketch missing sum".into()))?;
        let buckets = v
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SketchError::Corrupt("quantile sketch missing buckets".into()))?;
        if buckets.len() % 2 != 0 {
            return Err(SketchError::Corrupt("odd quantile bucket pair list".into()));
        }
        for pair in buckets.chunks(2) {
            let idx = pair[0]
                .as_u64()
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < s.counts.len())
                .ok_or_else(|| SketchError::Corrupt("quantile bucket index".into()))?;
            let c = pair[1]
                .as_u64()
                .ok_or_else(|| SketchError::Corrupt("quantile bucket count".into()))?;
            s.counts[idx] = c;
        }
        Ok(s)
    }
}

/// Fixed salts deriving the independent count-min row hashes (golden-ratio
/// multiples, same family as [`SplitMix64`]'s increment).
const CM_ROW_SALTS: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0x3C6E_F372_FE94_F82A,
    0xDAA6_6D2C_7DDF_743F,
    0x78DD_E6E5_FD29_F054,
    0x1715_6069_7C74_6C69,
    0xB54C_DA03_FBBE_E87E,
    0x5384_539D_7B09_6493,
    0xF1BB_CD37_FA53_E0A8,
];

fn fnv1a(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Count-min sketch: `depth` rows of `width` counters; increments hit one
/// counter per row, estimates take the row-wise minimum. Estimates can
/// only over-count (hash collisions), never under-count — the right bias
/// for "which configs regress" attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    rows: Vec<u64>,
}

impl CountMinSketch {
    /// An empty sketch. `width` is rounded up to a power of two and
    /// clamped to ≥ 16; `depth` is clamped to `[1, 8]`.
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(16).next_power_of_two();
        let depth = depth.clamp(1, CM_ROW_SALTS.len());
        Self { width, depth, rows: vec![0; width * depth] }
    }

    /// Row count.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    fn slot(&self, row: usize, key_hash: u64) -> usize {
        let mut mixer = SplitMix64::new(key_hash ^ CM_ROW_SALTS[row]);
        row * self.width + (mixer.next_u64() as usize & (self.width - 1))
    }

    /// Add `delta` to `key`.
    pub fn increment(&mut self, key: &str, delta: u64) {
        let h = fnv1a(key);
        for row in 0..self.depth {
            let slot = self.slot(row, h);
            self.rows[slot] += delta;
        }
    }

    /// Point estimate for `key` (row-wise minimum; never under-counts).
    pub fn estimate(&self, key: &str) -> u64 {
        let h = fnv1a(key);
        (0..self.depth).map(|row| self.rows[self.slot(row, h)]).min().unwrap_or(0)
    }

    /// Exact merge. Errors when geometries differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(SketchError::Mismatch("count-min width/depth".into()));
        }
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a += *b;
        }
        Ok(())
    }

    /// Serialize (sparse pairs over the flattened matrix).
    pub fn to_json_value(&self) -> JsonValue {
        let mut slots = JsonValue::array();
        for (idx, &c) in self.rows.iter().enumerate() {
            if c != 0 {
                slots = slots.push(idx as u64).push(c);
            }
        }
        JsonValue::object()
            .set("width", self.width as u64)
            .set("depth", self.depth as u64)
            .set("slots", slots)
    }

    /// Inverse of [`CountMinSketch::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, SketchError> {
        let width = v
            .get("width")
            .and_then(JsonValue::as_u64)
            .and_then(|w| usize::try_from(w).ok())
            .filter(|&w| (16..=1 << 24).contains(&w) && w.is_power_of_two())
            .ok_or_else(|| SketchError::Corrupt("count-min width".into()))?;
        let depth = v
            .get("depth")
            .and_then(JsonValue::as_u64)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&d| (1..=CM_ROW_SALTS.len()).contains(&d))
            .ok_or_else(|| SketchError::Corrupt("count-min depth".into()))?;
        let mut s = Self { width, depth, rows: vec![0; width * depth] };
        let slots = v
            .get("slots")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SketchError::Corrupt("count-min slots".into()))?;
        if slots.len() % 2 != 0 {
            return Err(SketchError::Corrupt("odd count-min slot pair list".into()));
        }
        for pair in slots.chunks(2) {
            let idx = pair[0]
                .as_u64()
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < s.rows.len())
                .ok_or_else(|| SketchError::Corrupt("count-min slot index".into()))?;
            let c = pair[1]
                .as_u64()
                .ok_or_else(|| SketchError::Corrupt("count-min slot count".into()))?;
            s.rows[idx] = c;
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bucket_index_is_monotone_and_in_range() {
        let s = QuantileSketch::new(4);
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|exp| [0u64, 1, 3].map(|off| (1u64 << exp).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = s.bucket_index(v);
            assert!(idx < s.counts.len(), "v={v} idx={idx}");
            assert!(idx >= last, "index must be monotone in value (v={v})");
            last = idx;
            assert!(s.bucket_lower(idx) <= v, "lower bound ≤ value for v={v}");
        }
        assert!(s.bucket_index(u64::MAX) < s.counts.len());
    }

    #[test]
    fn quantile_exact_region_is_exact() {
        let mut s = QuantileSketch::new(5);
        for v in 0..64u64 {
            s.observe(v);
        }
        // Values < 2^(m+1) = 64 occupy their own bucket: the median of
        // 0..64 must come back exactly.
        assert_eq!(s.quantile(0.5), 31);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 63);
    }

    #[test]
    fn count_min_never_undercounts() {
        let mut cm = CountMinSketch::new(64, 4);
        for i in 0..200u64 {
            cm.increment(&format!("key-{}", i % 20), 1);
        }
        for i in 0..20u64 {
            assert!(cm.estimate(&format!("key-{i}")) >= 10, "key-{i}");
        }
    }

    #[test]
    fn serialization_round_trips_bit_identically() {
        let mut q = QuantileSketch::new(6);
        let mut cm = CountMinSketch::new(256, 4);
        let mut rng = SplitMix64::new(42);
        for _ in 0..5_000 {
            let v = rng.next_below(20_000);
            q.observe(v);
            cm.increment(&format!("t{}", v % 13), 1);
        }
        let q2 = QuantileSketch::from_json_value(&q.to_json_value()).unwrap();
        let cm2 = CountMinSketch::from_json_value(&cm.to_json_value()).unwrap();
        assert_eq!(q, q2);
        assert_eq!(cm, cm2);
        assert_eq!(q.to_json_value().render(), q2.to_json_value().render());
    }

    #[test]
    fn quantile_resolution_outside_1_to_16_is_refused() {
        let stored = |m: u64| {
            JsonValue::object()
                .set("m", m)
                .set("count", 0u64)
                .set("sum", 0u64)
                .set("buckets", JsonValue::array())
        };
        for m in [1u64, 16] {
            let v = stored(m);
            assert_eq!(QuantileSketch::from_json_value(&v).unwrap().sub_bits(), m as u32);
        }
        for m in [0u64, 17, u64::from(u32::MAX) + 1] {
            let v = stored(m);
            assert!(
                matches!(QuantileSketch::from_json_value(&v), Err(SketchError::Corrupt(_))),
                "m = {m}"
            );
        }
    }

    #[test]
    fn geometry_mismatches_are_typed_errors() {
        let mut a = QuantileSketch::new(4);
        let b = QuantileSketch::new(5);
        assert!(matches!(a.merge(&b), Err(SketchError::Mismatch(_))));
        let mut ca = CountMinSketch::new(64, 4);
        let cb = CountMinSketch::new(128, 4);
        assert!(matches!(ca.merge(&cb), Err(SketchError::Mismatch(_))));
    }

    #[test]
    fn degrade_halves_resolution_until_the_floor()
    {
        let mut cfg = SketchConfig::default();
        let before = cfg.tally_bytes();
        assert!(cfg.degrade());
        assert!(cfg.tally_bytes() < before);
        while cfg.degrade() {}
        assert_eq!(cfg.sub_bits, 2);
        assert_eq!(cfg.cm_width, 64);
    }
}
