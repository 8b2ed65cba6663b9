//! Seeded network fault plans for the multi-process wire layer.
//!
//! [`NetFaultPlan`] extends the chaos harness across the process
//! boundary: where [`crate::FaultPlan`] sabotages workers *inside* a
//! runtime, a [`NetInjector`] sabotages the frames *between* the
//! router and its shard servers — dropping, duplicating, reordering,
//! corrupting, and truncating them, killing connections outright, and
//! stalling reconnect attempts. It plugs into the
//! [`sleuth_wire::FrameWriter`] seam via
//! [`sleuth_wire::WireFaultInjector`].
//!
//! Determinism follows the same recipe as [`crate::SeededInjector`]:
//! every decision is a pure function of (plan seed, fault domain,
//! content key), where the content key is the (peer, per-connection
//! data-frame counter) pair the writer hands us — independent of
//! thread scheduling and wall-clock time. Budgets bound every class,
//! so any finite plan eventually falls silent and the
//! fault-transparency gate (faulted run ≡ fault-free run) can be
//! asserted after convergence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sleuth_wire::{FrameFate, WireFaultInjector};

use crate::mix::roll;

/// Declarative description of what the network should do wrong.
/// Rates are probabilities in `[0, 1]` rolled per outgoing data
/// frame; each class has a budget so the plan is finite. The default
/// plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed mixed into every roll.
    pub seed: u64,
    /// Probability a data frame is silently dropped (the session
    /// layer's nack/resend must recover it).
    pub drop_rate: f64,
    /// Maximum dropped frames.
    pub drop_budget: u64,
    /// Probability a data frame is sent twice (receiver must dedup).
    pub duplicate_rate: f64,
    /// Maximum duplicated frames.
    pub duplicate_budget: u64,
    /// Probability a data frame is held back and delivered after its
    /// successor (receiver's reorder buffer must heal it).
    pub reorder_rate: f64,
    /// Maximum reordered frames.
    pub reorder_budget: u64,
    /// Probability a payload byte is flipped in flight (checksum must
    /// catch it; resend recovers).
    pub corrupt_rate: f64,
    /// Maximum corrupted frames.
    pub corrupt_budget: u64,
    /// Probability a frame is cut off mid-write and the connection
    /// dies (reconnect + session resume must recover).
    pub truncate_rate: f64,
    /// Maximum truncated frames.
    pub truncate_budget: u64,
    /// Probability the connection is killed before a frame is written
    /// at all.
    pub kill_rate: f64,
    /// Maximum connection kills.
    pub kill_budget: u64,
    /// Stall injected into each reconnect attempt (models a slow or
    /// flapping network path). `None` = connect at full speed.
    pub connect_stall: Option<Duration>,
    /// Maximum stalled connect attempts.
    pub connect_stall_budget: u64,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan {
            seed: 0,
            drop_rate: 0.0,
            drop_budget: u64::MAX,
            duplicate_rate: 0.0,
            duplicate_budget: u64::MAX,
            reorder_rate: 0.0,
            reorder_budget: u64::MAX,
            corrupt_rate: 0.0,
            corrupt_budget: u64::MAX,
            truncate_rate: 0.0,
            truncate_budget: u64::MAX,
            kill_rate: 0.0,
            kill_budget: u64::MAX,
            connect_stall: None,
            connect_stall_budget: u64::MAX,
        }
    }
}

/// Remaining injections of one fault class (identical one-way
/// semantics to the runtime injector's budget).
#[derive(Debug)]
struct Budget(AtomicU64);

impl Budget {
    fn new(tokens: u64) -> Self {
        Budget(AtomicU64::new(tokens))
    }

    fn take(&self) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

// Independent roll domains per fault class.
const DOMAIN_DROP: u64 = 0x10;
const DOMAIN_DUPLICATE: u64 = 0x11;
const DOMAIN_REORDER: u64 = 0x12;
const DOMAIN_CORRUPT: u64 = 0x13;
const DOMAIN_TRUNCATE: u64 = 0x14;
const DOMAIN_KILL: u64 = 0x15;

/// [`WireFaultInjector`] that executes a [`NetFaultPlan`]
/// deterministically. Share one instance (via `Arc`) across every
/// frame writer so the budgets are global to the run.
#[derive(Debug)]
pub struct NetInjector {
    plan: NetFaultPlan,
    drops: Budget,
    duplicates: Budget,
    reorders: Budget,
    corrupts: Budget,
    truncates: Budget,
    kills: Budget,
    connect_stalls: Budget,
    injected_drops: AtomicU64,
    injected_duplicates: AtomicU64,
    injected_reorders: AtomicU64,
    injected_corrupts: AtomicU64,
    injected_truncates: AtomicU64,
    injected_kills: AtomicU64,
    injected_connect_stalls: AtomicU64,
}

impl NetInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: NetFaultPlan) -> Self {
        NetInjector {
            drops: Budget::new(plan.drop_budget),
            duplicates: Budget::new(plan.duplicate_budget),
            reorders: Budget::new(plan.reorder_budget),
            corrupts: Budget::new(plan.corrupt_budget),
            truncates: Budget::new(plan.truncate_budget),
            kills: Budget::new(plan.kill_budget),
            connect_stalls: Budget::new(plan.connect_stall_budget),
            injected_drops: AtomicU64::new(0),
            injected_duplicates: AtomicU64::new(0),
            injected_reorders: AtomicU64::new(0),
            injected_corrupts: AtomicU64::new(0),
            injected_truncates: AtomicU64::new(0),
            injected_kills: AtomicU64::new(0),
            injected_connect_stalls: AtomicU64::new(0),
            plan,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Dropped frames injected so far.
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
    }

    /// Duplicated frames injected so far.
    pub fn injected_duplicates(&self) -> u64 {
        self.injected_duplicates.load(Ordering::Relaxed)
    }

    /// Reordered frames injected so far.
    pub fn injected_reorders(&self) -> u64 {
        self.injected_reorders.load(Ordering::Relaxed)
    }

    /// Corrupted frames injected so far.
    pub fn injected_corrupts(&self) -> u64 {
        self.injected_corrupts.load(Ordering::Relaxed)
    }

    /// Truncated frames injected so far.
    pub fn injected_truncates(&self) -> u64 {
        self.injected_truncates.load(Ordering::Relaxed)
    }

    /// Connection kills injected so far.
    pub fn injected_kills(&self) -> u64 {
        self.injected_kills.load(Ordering::Relaxed)
    }

    /// Stalled connect attempts injected so far.
    pub fn injected_connect_stalls(&self) -> u64 {
        self.injected_connect_stalls.load(Ordering::Relaxed)
    }

    /// Total faults injected across every class.
    pub fn injected_total(&self) -> u64 {
        self.injected_drops()
            + self.injected_duplicates()
            + self.injected_reorders()
            + self.injected_corrupts()
            + self.injected_truncates()
            + self.injected_kills()
            + self.injected_connect_stalls()
    }

    /// True once every fault budget is spent (or zero-rated) — after
    /// this point the network behaves perfectly and the system must
    /// converge to fault-free results.
    pub fn is_silent(&self) -> bool {
        let spent = |b: &Budget, rate: f64| rate <= 0.0 || b.0.load(Ordering::Relaxed) == 0;
        spent(&self.drops, self.plan.drop_rate)
            && spent(&self.duplicates, self.plan.duplicate_rate)
            && spent(&self.reorders, self.plan.reorder_rate)
            && spent(&self.corrupts, self.plan.corrupt_rate)
            && spent(&self.truncates, self.plan.truncate_rate)
            && spent(&self.kills, self.plan.kill_rate)
            && spent(
                &self.connect_stalls,
                if self.plan.connect_stall.is_some() {
                    1.0
                } else {
                    0.0
                },
            )
    }
}

impl WireFaultInjector for NetInjector {
    fn frame_fate(&self, peer: usize, counter: u64) -> FrameFate {
        let key = ((peer as u64) << 48) ^ counter;
        let seed = self.plan.seed;
        // Destructive fates roll first: a kill/truncate decision should
        // not be masked by a cheaper fate hitting the same frame.
        if roll(seed, DOMAIN_KILL, key) < self.plan.kill_rate && self.kills.take() {
            self.injected_kills.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Kill;
        }
        if roll(seed, DOMAIN_TRUNCATE, key) < self.plan.truncate_rate && self.truncates.take() {
            self.injected_truncates.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Truncate;
        }
        if roll(seed, DOMAIN_DROP, key) < self.plan.drop_rate && self.drops.take() {
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Drop;
        }
        if roll(seed, DOMAIN_CORRUPT, key) < self.plan.corrupt_rate && self.corrupts.take() {
            self.injected_corrupts.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Corrupt;
        }
        if roll(seed, DOMAIN_REORDER, key) < self.plan.reorder_rate && self.reorders.take() {
            self.injected_reorders.fetch_add(1, Ordering::Relaxed);
            return FrameFate::HoldUntilNext;
        }
        if roll(seed, DOMAIN_DUPLICATE, key) < self.plan.duplicate_rate && self.duplicates.take() {
            self.injected_duplicates.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }

    fn connect_delay(&self, _peer: usize, _attempt: u32) -> Option<Duration> {
        let stall = self.plan.connect_stall?;
        if self.connect_stalls.take() {
            self.injected_connect_stalls.fetch_add(1, Ordering::Relaxed);
            Some(stall)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_delivers_everything() {
        let inj = NetInjector::new(NetFaultPlan::default());
        for counter in 0..100 {
            assert_eq!(inj.frame_fate(0, counter), FrameFate::Deliver);
        }
        assert_eq!(inj.injected_total(), 0);
        assert!(inj.is_silent());
        assert_eq!(inj.connect_delay(0, 0), None);
    }

    #[test]
    fn fates_are_deterministic_across_injectors() {
        let plan = NetFaultPlan {
            seed: 99,
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            reorder_rate: 0.2,
            ..NetFaultPlan::default()
        };
        let a = NetInjector::new(plan);
        let b = NetInjector::new(plan);
        for peer in 0..3usize {
            for counter in 0..200u64 {
                assert_eq!(a.frame_fate(peer, counter), b.frame_fate(peer, counter));
            }
        }
        assert!(
            a.injected_total() > 0,
            "plan with 60% total rate never fired"
        );
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn budgets_exhaust_to_silence() {
        let plan = NetFaultPlan {
            seed: 5,
            drop_rate: 1.0,
            drop_budget: 3,
            ..NetFaultPlan::default()
        };
        let inj = NetInjector::new(plan);
        assert!(!inj.is_silent());
        let mut dropped = 0;
        for counter in 0..50 {
            if inj.frame_fate(0, counter) == FrameFate::Drop {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3);
        assert_eq!(inj.injected_drops(), 3);
        assert!(inj.is_silent());
        assert_eq!(inj.frame_fate(0, 999), FrameFate::Deliver);
    }

    #[test]
    fn connect_stall_respects_budget() {
        let plan = NetFaultPlan {
            connect_stall: Some(Duration::from_millis(1)),
            connect_stall_budget: 2,
            ..NetFaultPlan::default()
        };
        let inj = NetInjector::new(plan);
        assert!(inj.connect_delay(0, 0).is_some());
        assert!(inj.connect_delay(1, 0).is_some());
        assert!(inj.connect_delay(0, 1).is_none());
        assert_eq!(inj.injected_connect_stalls(), 2);
        assert!(inj.is_silent());
    }

    #[test]
    fn destructive_fates_take_priority() {
        let plan = NetFaultPlan {
            seed: 1,
            kill_rate: 1.0,
            kill_budget: 1,
            drop_rate: 1.0,
            drop_budget: 1,
            ..NetFaultPlan::default()
        };
        let inj = NetInjector::new(plan);
        assert_eq!(inj.frame_fate(0, 0), FrameFate::Kill);
        assert_eq!(inj.frame_fate(0, 1), FrameFate::Drop);
        assert_eq!(inj.frame_fate(0, 2), FrameFate::Deliver);
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetInjector>();
    }
}
