//! Bandwidth-limited transfer channels with busy-until queueing.

use pim_faults::{ChannelFaultConfig, SplitMix64};

use crate::error::ConfigError;
use crate::Ps;

/// Link-fault counters of a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelFaultStats {
    /// Transactions dropped and retransmitted.
    pub dropped: u64,
    /// Transactions duplicated on the link.
    pub duplicated: u64,
}

/// Seeded per-channel fault injector (dropped / duplicated transactions).
#[derive(Debug, Clone)]
struct FaultInjector {
    drop_prob: f64,
    dup_prob: f64,
    rng: SplitMix64,
    stats: ChannelFaultStats,
}

/// A point-to-point transfer resource with finite bandwidth.
///
/// The off-chip channel (32 GB/s in Table 1), the in-stack TSV path
/// (256 GB/s aggregate) and each vault's slice of it are all `Channel`s.
/// A transfer occupies the channel for `bytes / bandwidth`; if the channel
/// is still busy from earlier transfers the new one queues, which is how
/// bandwidth saturation turns into latency in this model.
///
/// ```
/// use pim_memsim::Channel;
/// let mut ch = Channel::new(32.0).unwrap(); // 32 GB/s
/// let t1 = ch.transfer(64, 0);
/// let t2 = ch.transfer(64, 0); // queued behind t1
/// assert_eq!(t2, 2 * t1);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    ps_per_byte: f64,
    busy_until: Ps,
    carry: f64,
    bytes_moved: u64,
    stall_ps: u64,
    faults: Option<FaultInjector>,
}

impl Channel {
    /// Create a channel with the given bandwidth in GB/s (1e9 bytes/s).
    ///
    /// # Errors
    ///
    /// [`ConfigError::NonPositiveBandwidth`] if `gb_per_s` is not
    /// positive (a zero-bandwidth link would serialize forever).
    pub fn new(gb_per_s: f64) -> Result<Self, ConfigError> {
        Self::validate_bandwidth(gb_per_s, "channel")?;
        Ok(Self::build(gb_per_s))
    }

    /// Validate a bandwidth, naming the link in any error.
    pub(crate) fn validate_bandwidth(
        gb_per_s: f64,
        what: &'static str,
    ) -> Result<(), ConfigError> {
        if gb_per_s > 0.0 {
            Ok(())
        } else {
            Err(ConfigError::NonPositiveBandwidth { what, gb_per_s })
        }
    }

    /// Build without validating; callers must have checked the bandwidth.
    pub(crate) fn build(gb_per_s: f64) -> Self {
        Self {
            // 1 GB/s == 1 byte/ns == 1000 ps per byte at 1 GB/s.
            ps_per_byte: 1000.0 / gb_per_s,
            busy_until: 0,
            carry: 0.0,
            bytes_moved: 0,
            stall_ps: 0,
            faults: None,
        }
    }

    /// Create a channel whose link drops and duplicates transactions with
    /// the seeded probabilities in `cfg`.
    ///
    /// A dropped transaction is retransmitted: the channel is occupied for
    /// the transfer twice. A duplicated transaction moves its bytes twice
    /// but completes when the first copy lands. With both probabilities at
    /// zero the channel behaves bit-identically to [`Channel::new`].
    ///
    /// # Errors
    ///
    /// Rejects a non-positive bandwidth or a probability outside `[0, 1]`.
    pub fn with_faults(gb_per_s: f64, cfg: ChannelFaultConfig) -> Result<Self, ConfigError> {
        Self::validate_bandwidth(gb_per_s, "channel")?;
        validate_prob(cfg.drop_prob, "drop_prob")?;
        validate_prob(cfg.dup_prob, "dup_prob")?;
        Ok(Self::build_with_faults(gb_per_s, cfg))
    }

    /// Build without validating; callers must have checked bandwidth and
    /// probabilities.
    pub(crate) fn build_with_faults(gb_per_s: f64, cfg: ChannelFaultConfig) -> Self {
        let mut ch = Self::build(gb_per_s);
        if cfg.drop_prob > 0.0 || cfg.dup_prob > 0.0 {
            ch.faults = Some(FaultInjector {
                drop_prob: cfg.drop_prob,
                dup_prob: cfg.dup_prob,
                rng: SplitMix64::new(cfg.seed),
                stats: ChannelFaultStats::default(),
            });
        }
        ch
    }

    /// Occupy the channel for `bytes` starting no earlier than `now`.
    ///
    /// Returns the latency from `now` until the transfer completes, i.e.
    /// queueing delay plus serialization time.
    pub fn transfer(&mut self, bytes: u64, now: Ps) -> Ps {
        let mut copies = 1u64;
        let mut completes_on_first = false;
        if let Some(inj) = self.faults.as_mut() {
            if inj.rng.chance(inj.drop_prob) {
                // Lost on the link: retransmit, so the payload crosses twice
                // and the requester waits for the second copy.
                inj.stats.dropped += 1;
                copies = 2;
            } else if inj.rng.chance(inj.dup_prob) {
                // Spurious duplicate: it consumes bandwidth behind the real
                // transfer but the requester only waits for the first copy.
                inj.stats.duplicated += 1;
                copies = 2;
                completes_on_first = true;
            }
        }
        let mut latency = 0;
        for copy in 0..copies {
            let l = self.transfer_once(bytes, now);
            if copy == 0 || !completes_on_first {
                latency = l;
            }
        }
        latency
    }

    fn transfer_once(&mut self, bytes: u64, now: Ps) -> Ps {
        let start = self.busy_until.max(now);
        let exact = bytes as f64 * self.ps_per_byte + self.carry;
        let dur = exact as u64;
        self.carry = exact - dur as f64;
        self.busy_until = start + dur;
        self.bytes_moved += bytes;
        self.stall_ps += start - now;
        self.busy_until - now
    }

    /// Dropped/duplicated transaction counters (zero for fault-free links).
    pub fn fault_stats(&self) -> ChannelFaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Total bytes moved across the channel.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Accumulated queueing delay experienced by transfers, in ps.
    pub fn total_stall_ps(&self) -> u64 {
        self.stall_ps
    }

    /// Time at which the channel next becomes idle.
    pub fn busy_until(&self) -> Ps {
        self.busy_until
    }
}

/// Validate a probability, naming it in any error.
pub(crate) fn validate_prob(p: f64, what: &'static str) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(ConfigError::InvalidProbability { what, p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_matches_bandwidth() {
        let mut ch = Channel::new(1.0).unwrap(); // 1 GB/s -> 1000 ps/B
        assert_eq!(ch.transfer(64, 0), 64_000);
    }

    #[test]
    fn idle_channel_does_not_queue() {
        let mut ch = Channel::new(32.0).unwrap();
        let l1 = ch.transfer(64, 0);
        // Start the next transfer after the first has fully drained.
        let l2 = ch.transfer(64, 1_000_000);
        assert_eq!(l1, l2);
        assert_eq!(ch.total_stall_ps(), 0);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut ch = Channel::new(32.0).unwrap();
        let l1 = ch.transfer(64, 0);
        let l2 = ch.transfer(64, 0);
        assert_eq!(l2, 2 * l1);
        assert_eq!(ch.total_stall_ps(), l1);
    }

    #[test]
    fn bytes_are_counted() {
        let mut ch = Channel::new(32.0).unwrap();
        ch.transfer(64, 0);
        ch.transfer(128, 0);
        assert_eq!(ch.bytes_moved(), 192);
    }

    #[test]
    fn zero_prob_fault_config_matches_plain_channel() {
        let cfg = ChannelFaultConfig { drop_prob: 0.0, dup_prob: 0.0, seed: 1 };
        let mut plain = Channel::new(32.0).unwrap();
        let mut faulty = Channel::with_faults(32.0, cfg).unwrap();
        for i in 0..100 {
            assert_eq!(plain.transfer(64, i * 10), faulty.transfer(64, i * 10));
        }
        assert_eq!(faulty.fault_stats(), ChannelFaultStats::default());
    }

    #[test]
    fn dropped_transactions_occupy_the_link_twice() {
        let cfg = ChannelFaultConfig { drop_prob: 1.0, dup_prob: 0.0, seed: 7 };
        let mut ch = Channel::with_faults(32.0, cfg).unwrap();
        let base = Channel::new(32.0).unwrap().transfer(64, 0);
        let l = ch.transfer(64, 0);
        assert_eq!(l, 2 * base);
        assert_eq!(ch.fault_stats().dropped, 1);
        assert_eq!(ch.bytes_moved(), 128);
    }

    #[test]
    fn duplicates_burn_bandwidth_but_complete_on_first_copy() {
        let cfg = ChannelFaultConfig { drop_prob: 0.0, dup_prob: 1.0, seed: 7 };
        let mut ch = Channel::with_faults(32.0, cfg).unwrap();
        let base = Channel::new(32.0).unwrap().transfer(64, 0);
        let l = ch.transfer(64, 0);
        assert_eq!(l, base); // requester waits only for the first copy
        assert_eq!(ch.fault_stats().duplicated, 1);
        assert_eq!(ch.bytes_moved(), 128); // but the link carried it twice
        // The duplicate occupies the link: the next transfer queues behind it.
        let mut fresh = Channel::new(32.0).unwrap();
        fresh.transfer(64, 0);
        assert!(ch.busy_until() > fresh.busy_until());
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let cfg = ChannelFaultConfig { drop_prob: 0.3, dup_prob: 0.2, seed: 99 };
        let mut a = Channel::with_faults(8.0, cfg).unwrap();
        let mut b = Channel::with_faults(8.0, cfg).unwrap();
        for i in 0..500 {
            assert_eq!(a.transfer(64, i * 5), b.transfer(64, i * 5));
        }
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert!(a.fault_stats().dropped > 0 && a.fault_stats().duplicated > 0);
    }

    #[test]
    fn fractional_ps_per_byte_accumulates() {
        // 3 GB/s -> 333.33 ps/B. 3000 transfers of 1 byte must total ~1 ms.
        let mut ch = Channel::new(3.0).unwrap();
        for _ in 0..3000 {
            ch.transfer(1, 0);
        }
        let total = ch.busy_until();
        assert!((total as i64 - 1_000_000).abs() < 10, "total = {total}");
    }
}
