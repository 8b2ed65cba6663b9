//! Cluster failure model: heartbeat-driven peer health and the
//! exactly-once verdict ledger.
//!
//! The router probes every live peer with [`crate::Frame::Heartbeat`]
//! on a configurable interval. A peer that fails to ack before the
//! next probe is due accrues a *miss*; one miss marks it
//! [`PeerHealth::Suspect`], and `miss_threshold` consecutive misses
//! mark it [`PeerHealth::Dead`] — bounding failure detection at
//! `interval × (miss_threshold + 1)` without waiting on TCP to notice
//! (a SIGSTOP'd process keeps its sockets open forever).
//!
//! Ownership is always rendezvous hashing over the live peers
//! ([`sleuth_serve::owner_of`]), so a death moves exactly the dead
//! shard's keys and nothing else — a membership change never
//! reshuffles traces between survivors.
//!
//! Exactly-once across restarts is enforced by [`VerdictLedger`]: a
//! bounded insertion-ordered set of trace ids that already produced an
//! accepted verdict. A respawned shard replaying its unacked session
//! tail, or a failover re-running a trace the dead shard had already
//! answered, gets deduped at the router instead of double-emitting.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::time::Duration;

use crate::error::WireError;

/// Heartbeat-based failure detection settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Probe cadence. Each live peer gets one `Heartbeat` per
    /// interval (sent from the router's pump loop).
    pub interval: Duration,
    /// Consecutive unacked intervals before a peer is declared
    /// [`PeerHealth::Dead`]. One miss already marks it Suspect.
    pub miss_threshold: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(100),
            miss_threshold: 3,
        }
    }
}

/// A heartbeat/failover configuration rejected at build time.
///
/// Mirrors the `sleuth-serve` builder-validation pattern: every
/// invariant is a typed variant, validated before any socket is
/// touched, so a bad config fails fast instead of producing a router
/// that can never detect failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthConfigError {
    /// `interval` must be positive — a zero interval would spin the
    /// pump loop and mark every peer dead instantly.
    ZeroHeartbeatInterval,
    /// `miss_threshold` must be at least 1 — zero would declare a
    /// peer dead before its first probe could be acked.
    ZeroMissThreshold,
    /// The full detection window (`interval × (miss_threshold + 1)`)
    /// must fit inside the session/response timeout, otherwise the
    /// router would block on a stalled peer longer than it takes to
    /// declare it dead.
    IntervalExceedsSessionTimeout {
        /// Configured heartbeat interval.
        interval: Duration,
        /// Configured session/response timeout it must undercut.
        session_timeout: Duration,
    },
}

impl fmt::Display for HealthConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthConfigError::ZeroHeartbeatInterval => {
                write!(f, "heartbeat interval must be > 0")
            }
            HealthConfigError::ZeroMissThreshold => {
                write!(f, "heartbeat miss threshold must be >= 1")
            }
            HealthConfigError::IntervalExceedsSessionTimeout {
                interval,
                session_timeout,
            } => write!(
                f,
                "heartbeat interval {interval:?} must be shorter than \
                 the session timeout {session_timeout:?}"
            ),
        }
    }
}

impl std::error::Error for HealthConfigError {}

impl From<HealthConfigError> for WireError {
    fn from(err: HealthConfigError) -> Self {
        WireError::Config(err.to_string())
    }
}

impl HeartbeatConfig {
    /// Validate against the session/response timeout the heartbeat
    /// window must undercut. Returns the first violation.
    pub fn validate(&self, session_timeout: Duration) -> Result<(), HealthConfigError> {
        if self.interval.is_zero() {
            return Err(HealthConfigError::ZeroHeartbeatInterval);
        }
        if self.miss_threshold == 0 {
            return Err(HealthConfigError::ZeroMissThreshold);
        }
        if self.interval >= session_timeout {
            return Err(HealthConfigError::IntervalExceedsSessionTimeout {
                interval: self.interval,
                session_timeout,
            });
        }
        Ok(())
    }
}

/// Liveness verdict for one peer, driven by heartbeat acks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerHealth {
    /// Acking heartbeats on schedule.
    #[default]
    Live,
    /// Missed at least one heartbeat interval; still routed to, but
    /// under watch.
    Suspect,
    /// Missed `miss_threshold` consecutive intervals (or the
    /// connection failed and could not be re-established). Its keys
    /// are failed over to survivors.
    Dead,
}

/// Bounded insertion-ordered set of trace ids with an accepted
/// verdict: the router's exactly-once filter.
///
/// `insert` returns `false` for a trace already in the ledger (the
/// caller drops the duplicate verdict and bumps `verdicts_deduped`).
/// When the bound is hit the oldest entry is evicted — the window only
/// needs to cover the maximum unacked session tail plus the failover
/// re-run horizon, both of which are bounded by the session cap.
#[derive(Debug)]
pub struct VerdictLedger {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    cap: usize,
}

impl VerdictLedger {
    /// Ledger remembering at most `cap` trace ids (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        VerdictLedger {
            seen: HashSet::with_capacity(cap.min(4096)),
            order: VecDeque::with_capacity(cap.min(4096)),
            cap,
        }
    }

    /// Record `trace_id`; `false` means it was already present (a
    /// duplicate emission the caller must drop).
    pub fn insert(&mut self, trace_id: u64) -> bool {
        if !self.seen.insert(trace_id) {
            return false;
        }
        self.order.push_back(trace_id);
        if self.order.len() > self.cap {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }

    /// Whether `trace_id` already has an accepted verdict.
    pub fn contains(&self, trace_id: u64) -> bool {
        self.seen.contains(&trace_id)
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Per-peer heartbeat bookkeeping: what was sent, what was acked, and
/// how many intervals have elapsed unanswered.
#[derive(Debug, Default)]
pub struct HeartbeatState {
    /// Nonce of the most recent probe, when one is outstanding.
    pub outstanding: Option<u64>,
    /// Microsecond timestamp (monotonic, caller-supplied) of the last
    /// probe sent.
    pub last_sent_us: u64,
    /// Consecutive intervals without an ack.
    pub misses: u32,
    /// Next nonce to use.
    pub next_nonce: u64,
    /// Current verdict.
    pub health: PeerHealth,
}

impl HeartbeatState {
    /// Record an ack for `nonce`; stale nonces are ignored.
    pub fn on_ack(&mut self, nonce: u64) -> bool {
        if self.outstanding == Some(nonce) {
            self.outstanding = None;
            self.misses = 0;
            self.health = PeerHealth::Live;
            true
        } else {
            false
        }
    }

    /// An interval elapsed with the previous probe still outstanding.
    /// Returns the new health (Suspect, or Dead at `miss_threshold`).
    pub fn on_miss(&mut self, miss_threshold: u32) -> PeerHealth {
        self.misses = self.misses.saturating_add(1);
        self.health = if self.misses >= miss_threshold {
            PeerHealth::Dead
        } else {
            PeerHealth::Suspect
        };
        self.health
    }

    /// A new probe is going out at `now_us` with a fresh nonce.
    pub fn on_send(&mut self, now_us: u64) -> u64 {
        self.next_nonce = self.next_nonce.wrapping_add(1);
        self.outstanding = Some(self.next_nonce);
        self.last_sent_us = now_us;
        self.next_nonce
    }

    /// Forget in-flight probe state (connection was torn down or
    /// re-established; the old nonce can never be acked).
    pub fn reset_probe(&mut self) {
        self.outstanding = None;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_config_validates() {
        let ok = HeartbeatConfig::default();
        assert!(ok.validate(Duration::from_secs(30)).is_ok());

        let zero = HeartbeatConfig {
            interval: Duration::ZERO,
            ..ok
        };
        assert_eq!(
            zero.validate(Duration::from_secs(30)),
            Err(HealthConfigError::ZeroHeartbeatInterval)
        );

        let no_miss = HeartbeatConfig {
            miss_threshold: 0,
            ..ok
        };
        assert_eq!(
            no_miss.validate(Duration::from_secs(30)),
            Err(HealthConfigError::ZeroMissThreshold)
        );

        let slow = HeartbeatConfig {
            interval: Duration::from_secs(60),
            ..ok
        };
        assert!(matches!(
            slow.validate(Duration::from_secs(30)),
            Err(HealthConfigError::IntervalExceedsSessionTimeout { .. })
        ));
        // The error converts into the crate-wide WireError::Config.
        let wire: WireError = slow.validate(Duration::from_secs(30)).unwrap_err().into();
        assert!(matches!(wire, WireError::Config(_)));
    }

    #[test]
    fn ledger_dedups_and_evicts_in_order() {
        let mut ledger = VerdictLedger::new(3);
        assert!(ledger.insert(1));
        assert!(ledger.insert(2));
        assert!(!ledger.insert(1), "duplicate must be rejected");
        assert!(ledger.insert(3));
        assert_eq!(ledger.len(), 3);
        // Capacity eviction is FIFO: inserting 4 evicts 1.
        assert!(ledger.insert(4));
        assert!(!ledger.contains(1));
        assert!(ledger.contains(2) && ledger.contains(3) && ledger.contains(4));
        // The evicted id can be inserted again.
        assert!(ledger.insert(1));
    }

    #[test]
    fn heartbeat_state_machine_transitions() {
        let mut hb = HeartbeatState::default();
        assert_eq!(hb.health, PeerHealth::Live);

        let nonce = hb.on_send(1000);
        assert!(hb.on_ack(nonce));
        assert_eq!(hb.health, PeerHealth::Live);
        assert!(!hb.on_ack(nonce), "stale nonce ignored");

        let _nonce = hb.on_send(2000);
        assert_eq!(hb.on_miss(3), PeerHealth::Suspect);
        assert_eq!(hb.on_miss(3), PeerHealth::Suspect);
        assert_eq!(hb.on_miss(3), PeerHealth::Dead);

        // An ack after death still clears the state (the caller
        // decides whether a dead peer can be revived).
        let nonce = hb.on_send(3000);
        assert!(hb.on_ack(nonce));
        assert_eq!(hb.health, PeerHealth::Live);
        assert_eq!(hb.misses, 0);
    }
}
