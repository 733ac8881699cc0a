//! Admission control: per-client quotas and a global queue bound.
//!
//! Every admission decision is made *before* anything is journaled or
//! enqueued, and every refusal is a typed
//! [`Reject`] — an overloaded server answers
//! `overloaded` immediately instead of stalling the client or growing an
//! unbounded queue. Two limits apply, checked in order:
//!
//! 1. **per-client in-flight** ([`QuotaPolicy::max_in_flight_per_client`]):
//!    jobs a single client has admitted but not yet terminal; one greedy
//!    client cannot monopolize the worker pool.
//! 2. **global queue depth** ([`QuotaPolicy::max_queue_depth`]): total
//!    admitted-but-not-terminal jobs across all clients; bounds server
//!    memory and scheduling latency.
//!
//! The [`ClientLedger`] lives inside the scheduler's state lock, so
//! check-then-admit is atomic with the enqueue.

use std::collections::BTreeMap;

use crate::protocol::Reject;

/// Admission limits. `0` means "unlimited" for either knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaPolicy {
    /// Max jobs one client may have in flight (admitted, not terminal).
    pub max_in_flight_per_client: usize,
    /// Max jobs in flight across all clients.
    pub max_queue_depth: usize,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        Self { max_in_flight_per_client: 64, max_queue_depth: 1024 }
    }
}

/// Per-client accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounts {
    /// Jobs admitted but not yet terminal.
    pub in_flight: usize,
    /// Jobs ever admitted for this client.
    pub admitted: u64,
    /// Typed rejections returned to this client.
    pub rejected: u64,
}

/// Quota state across all clients (guarded by the scheduler's state lock).
#[derive(Debug, Default)]
pub struct ClientLedger {
    clients: BTreeMap<String, ClientCounts>,
    /// Total admitted-but-not-terminal jobs.
    pub total_in_flight: usize,
}

impl ClientLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to admit one job for `client`. On success the in-flight counts
    /// are already bumped; on refusal nothing changed except the client's
    /// rejection count, and the typed reason is returned.
    pub fn admit(&mut self, client: &str, policy: &QuotaPolicy) -> Result<(), Reject> {
        let counts = self.clients.entry(client.to_string()).or_default();
        let client_cap = policy.max_in_flight_per_client;
        if client_cap > 0 && counts.in_flight >= client_cap {
            counts.rejected += 1;
            return Err(Reject::overloaded("client", counts.in_flight, client_cap));
        }
        let queue_cap = policy.max_queue_depth;
        if queue_cap > 0 && self.total_in_flight >= queue_cap {
            counts.rejected += 1;
            return Err(Reject::overloaded("queue", self.total_in_flight, queue_cap));
        }
        counts.in_flight += 1;
        counts.admitted += 1;
        self.total_in_flight += 1;
        Ok(())
    }

    /// Admit bypassing both limits. Used when replaying journaled
    /// submissions at recovery: they were admitted before the crash, and
    /// quota must not re-litigate (or worse, reject) them.
    pub fn admit_unchecked(&mut self, client: &str) {
        let counts = self.clients.entry(client.to_string()).or_default();
        counts.in_flight += 1;
        counts.admitted += 1;
        self.total_in_flight += 1;
    }

    /// A job reached a terminal state: release its in-flight slot.
    pub fn release(&mut self, client: &str) {
        if let Some(counts) = self.clients.get_mut(client) {
            counts.in_flight = counts.in_flight.saturating_sub(1);
        }
        self.total_in_flight = self.total_in_flight.saturating_sub(1);
    }

    /// Counts for one client, if it has ever been seen.
    pub fn client(&self, client: &str) -> Option<ClientCounts> {
        self.clients.get(client).copied()
    }

    /// Number of distinct clients ever seen.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Total typed rejections across all clients.
    pub fn total_rejected(&self) -> u64 {
        self.clients.values().map(|c| c.rejected).sum()
    }

    /// Iterate `(client, counts)` in name order, for `/metrics`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ClientCounts)> {
        self.clients.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use crate::protocol::RejectKind;

    use super::*;

    #[test]
    fn per_client_cap_trips_with_typed_rejection() {
        let policy = QuotaPolicy { max_in_flight_per_client: 2, max_queue_depth: 100 };
        let mut ledger = ClientLedger::new();
        ledger.admit("a", &policy).unwrap();
        ledger.admit("a", &policy).unwrap();
        let rej = ledger.admit("a", &policy).unwrap_err();
        assert_eq!(rej.kind, RejectKind::Overloaded);
        assert_eq!(rej.scope, Some("client"));
        assert_eq!((rej.current, rej.limit), (Some(2), Some(2)));
        // A different client is unaffected by a's quota.
        ledger.admit("b", &policy).unwrap();
        // Releasing frees the slot.
        ledger.release("a");
        ledger.admit("a", &policy).unwrap();
        assert_eq!(ledger.client("a").unwrap().rejected, 1);
        assert_eq!(ledger.total_rejected(), 1);
    }

    #[test]
    fn global_queue_depth_bounds_all_clients_together() {
        let policy = QuotaPolicy { max_in_flight_per_client: 10, max_queue_depth: 3 };
        let mut ledger = ClientLedger::new();
        for (i, client) in ["a", "b", "c"].iter().enumerate() {
            ledger.admit(client, &policy).unwrap();
            assert_eq!(ledger.total_in_flight, i + 1);
        }
        let rej = ledger.admit("d", &policy).unwrap_err();
        assert_eq!(rej.scope, Some("queue"));
        ledger.release("b");
        ledger.admit("d", &policy).unwrap();
    }

    #[test]
    fn zero_means_unlimited() {
        let policy = QuotaPolicy { max_in_flight_per_client: 0, max_queue_depth: 0 };
        let mut ledger = ClientLedger::new();
        for _ in 0..10_000 {
            ledger.admit("greedy", &policy).unwrap();
        }
        assert_eq!(ledger.total_in_flight, 10_000);
    }
}
