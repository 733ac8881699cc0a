//! Set-associative write-back, write-allocate cache model.

use crate::access::{AccessKind, LINE_BYTES};
use crate::error::ConfigError;

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `associativity * 64`.
    pub capacity_bytes: u64,
    /// Number of ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// 64 kB, 4-way: the paper's per-core L1 (Table 1).
    pub fn soc_l1() -> Self {
        Self { capacity_bytes: 64 * 1024, associativity: 4 }
    }

    /// 2 MB, 8-way: the paper's shared LLC (Table 1).
    pub fn soc_llc() -> Self {
        Self { capacity_bytes: 2 * 1024 * 1024, associativity: 8 }
    }

    /// 32 kB, 4-way: the paper's PIM-core private L1 (Table 1 / §9).
    pub fn pim_l1() -> Self {
        Self { capacity_bytes: 32 * 1024, associativity: 4 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / LINE_BYTES) as usize / self.associativity
    }

    /// Validate the geometry, naming the cache in any error.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroAssociativity`] for zero ways,
    /// [`ConfigError::NonPowerOfTwoSets`] when the implied set count is
    /// not a power of two (the index function needs one).
    pub fn validate(&self, name: &'static str) -> Result<(), ConfigError> {
        if self.associativity == 0 {
            return Err(ConfigError::ZeroAssociativity { cache: name });
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError::NonPowerOfTwoSets { cache: name, sets });
        }
        Ok(())
    }
}

/// Result of a single line-granularity cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// Hit/miss/traffic counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions (each moves one line toward memory).
    pub writebacks: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// The model tracks tags only — data always lives with the workload — so a
/// 2 MB LLC costs a few hundred kB of simulator state.
///
/// ```
/// use pim_memsim::{Cache, CacheConfig, AccessKind};
/// let mut c = Cache::new(CacheConfig::soc_l1()).unwrap();
/// assert!(!c.access(0x40, AccessKind::Read).hit);
/// assert!(c.access(0x40, AccessKind::Read).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Errors
    ///
    /// Rejects geometries that fail [`CacheConfig::validate`]: zero
    /// associativity or a non-power-of-two set count.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate("cache")?;
        Ok(Self::build(config))
    }

    /// Build without validating. Callers must have validated `config`
    /// (directly or as part of a whole-system `MemConfig::validate`);
    /// an invalid geometry here would corrupt the set index math.
    pub(crate) fn build(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            sets: vec![Way::default(); sets * config.associativity],
            ways: config.associativity,
            set_mask: sets as u64 - 1,
            set_shift: (sets as u64 - 1).count_ones(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Commit hit transitions for up to `n` consecutive lines starting at
    /// `first_line`, stopping at (and not mutating on) the first miss.
    /// Returns how many lines hit. Bit-identical to calling
    /// [`Self::access`] on each line while it is resident: ticks advance
    /// one per hit and each way's `lru` gets its own tick value — the
    /// counters are simply added in one batch at the end.
    pub(crate) fn try_hit_run(&mut self, first_line: u64, n: u64, kind: AccessKind) -> u64 {
        let write = kind.is_write();
        let mut tick = self.tick;
        let mut committed = 0u64;
        while committed < n {
            let line = first_line + committed;
            let set = (line & self.set_mask) as usize;
            let tag = line >> self.set_shift;
            let base = set * self.ways;
            let Some(i) = self.sets[base..base + self.ways]
                .iter()
                .position(|w| w.valid && w.tag == tag)
            else {
                break;
            };
            tick += 1;
            let w = &mut self.sets[base + i];
            w.lru = tick;
            if write {
                w.dirty = true;
            }
            committed += 1;
        }
        self.tick = tick;
        self.stats.accesses += committed;
        self.stats.hits += committed;
        committed
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters accumulated since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the counters without disturbing cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Access one line. `addr` may be unaligned; only its line matters.
    ///
    /// A miss allocates the line (write-allocate) and may evict the LRU way;
    /// if the victim is dirty its address is reported so the caller can send
    /// the writeback toward memory.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> CacheOutcome {
        let line = addr / LINE_BYTES;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        self.tick += 1;
        self.stats.accesses += 1;

        let base = set * self.ways;
        let ways = &mut self.sets[base..base + self.ways];

        if let Some(i) = ways.iter().position(|w| w.valid && w.tag == tag) {
            let way = &mut ways[i];
            way.lru = self.tick;
            if kind.is_write() {
                way.dirty = true;
            }
            self.stats.hits += 1;
            return CacheOutcome { hit: true, writeback: None };
        }

        self.stats.misses += 1;
        // Victim: an invalid way if one exists, else true LRU.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .unwrap_or(0); // ways is never empty: associativity is validated nonzero
        let w = &mut ways[victim];
        let writeback = if w.valid && w.dirty {
            self.stats.writebacks += 1;
            let victim_line = (w.tag << self.set_shift) | set as u64;
            Some(victim_line * LINE_BYTES)
        } else {
            None
        };
        *w = Way { tag, valid: true, dirty: kind.is_write(), lru: self.tick };
        CacheOutcome { hit: false, writeback }
    }

    /// Whether the line containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.ways;
        self.sets[base..base + self.ways]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Invalidate every line, returning how many dirty lines were dropped.
    ///
    /// Used by the coherence model when an offload region begins and the PIM
    /// logic must observe the CPU's writes (dirty lines are flushed).
    pub fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for w in &mut self.sets {
            if w.valid && w.dirty {
                dirty += 1;
            }
            w.valid = false;
            w.dirty = false;
        }
        dirty
    }

    /// Number of currently valid lines (mainly for tests/diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 8 lines, 2-way => 4 sets.
        Cache::new(CacheConfig { capacity_bytes: 8 * LINE_BYTES, associativity: 2 }).unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(0, AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 (4 sets => stride 4 lines = 256 B).
        c.access(0, AccessKind::Read);
        c.access(256, AccessKind::Read);
        c.access(0, AccessKind::Read); // touch 0: 256 becomes LRU
        c.access(512, AccessKind::Read); // evicts 256
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(256, AccessKind::Read);
        let out = c.access(512, AccessKind::Read); // evicts line 0 (dirty)
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(256, AccessKind::Read);
        let out = c.access(512, AccessKind::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(256, AccessKind::Read);
        let out = c.access(512, AccessKind::Read);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn flush_all_counts_dirty_lines() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        assert_eq!(c.flush_all(), 1);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn try_hit_run_matches_per_line_loop() {
        // Seed both caches with an identical mix of resident lines, then
        // replay strided runs (some fully resident, some hitting holes)
        // through the batch and through the production hit path
        // (`contains`, then `access`, per line). All state — stats,
        // ticks, LRU order, dirty bits — must stay identical.
        let build = || {
            let mut c = tiny();
            for i in [0u64, 1, 2, 3, 5, 6, 9] {
                c.access(i * LINE_BYTES, AccessKind::Read);
            }
            c
        };
        let mut batch = build();
        let mut scalar = build();
        for (first, n, kind) in [
            (0u64, 4u64, AccessKind::Read),
            (2, 3, AccessKind::Write),   // stops at hole (line 4)
            (4, 2, AccessKind::Read),    // immediate miss: no mutation
            (5, 2, AccessKind::Write),
            (9, 1, AccessKind::Read),
            (0, 11, AccessKind::Read),   // long run across holes
        ] {
            let a = batch.try_hit_run(first, n, kind);
            let mut b = 0;
            while b < n && scalar.contains((first + b) * LINE_BYTES) {
                assert!(scalar.access((first + b) * LINE_BYTES, kind).hit);
                b += 1;
            }
            assert_eq!(a, b, "run ({first},{n})");
            assert_eq!(batch.stats(), scalar.stats());
            assert_eq!(batch.tick, scalar.tick);
            let lru = |c: &Cache| c.sets.iter().map(|w| w.lru).collect::<Vec<_>>();
            assert_eq!(lru(&batch), lru(&scalar), "run ({first},{n})");
        }
        // Dirty bits must also agree: both flushes drop the same lines.
        assert_eq!(batch.flush_all(), scalar.flush_all());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny();
        for i in 0..16 {
            c.access(i * LINE_BYTES, AccessKind::Read);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn paper_geometries_construct() {
        assert_eq!(Cache::new(CacheConfig::soc_l1()).unwrap().config().sets(), 256);
        assert_eq!(Cache::new(CacheConfig::soc_llc()).unwrap().config().sets(), 4096);
        assert_eq!(Cache::new(CacheConfig::pim_l1()).unwrap().config().sets(), 128);
    }

    #[test]
    fn invalid_geometries_are_typed_errors() {
        let zero_ways = CacheConfig { capacity_bytes: 8 * LINE_BYTES, associativity: 0 };
        assert!(matches!(
            Cache::new(zero_ways),
            Err(ConfigError::ZeroAssociativity { cache: "cache" })
        ));
        // 6 lines / 2 ways = 3 sets: not a power of two.
        let bad_sets = CacheConfig { capacity_bytes: 6 * LINE_BYTES, associativity: 2 };
        assert!(matches!(
            Cache::new(bad_sets),
            Err(ConfigError::NonPowerOfTwoSets { sets: 3, .. })
        ));
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_after_warmup() {
        let mut c = tiny();
        // Two passes over 64 distinct lines: every access must miss.
        for _ in 0..2 {
            for i in 0..64u64 {
                c.access(i * LINE_BYTES, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 128);
    }
}
