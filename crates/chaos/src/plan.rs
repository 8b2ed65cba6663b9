//! Seeded fault plans and the deterministic injector they drive.
//!
//! Determinism is the whole point: a fault decision must not depend
//! on thread scheduling, wall-clock time, or iteration order, or the
//! chaos test that reproduces a crash today will pass silently
//! tomorrow. Every roll here is therefore keyed on *content* — the
//! trace id being analysed, the worker making the attempt, the
//! per-shard message sequence number — mixed with the plan seed
//! through splitmix64. Budgets are the only shared mutable state, and
//! they only ever move one way (down), so exhaustion is deterministic
//! in aggregate even though *which* roll drains the last token can
//! race: after at most `budget` injections of a class, that class is
//! silent forever.

use std::sync::atomic::{AtomicU64, Ordering};

use sleuth_serve::FaultInjector;
use sleuth_trace::Trace;

use crate::mix::roll;

/// What should go wrong, described declaratively. All rates are
/// probabilities in `[0, 1]`; every fault class also has a budget
/// (maximum number of injections) so any finite plan eventually falls
/// silent and the runtime can be asserted to converge. The default
/// plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every roll; two injectors with the same plan
    /// make identical decisions.
    pub seed: u64,
    /// Kill every RCA worker's very first attempt exactly once,
    /// regardless of rates — guarantees supervision coverage of each
    /// worker in a single run.
    pub kill_each_rca_worker_once: bool,
    /// Probability an RCA attempt on a given trace panics. Keyed on
    /// the trace id and fired only at `attempt == 0`, so a supervised
    /// retry of the same trace always succeeds.
    pub rca_panic_rate: f64,
    /// Maximum injected RCA panics (kill-once kills not counted).
    pub rca_panic_budget: u64,
    /// Probability an RCA attempt is delayed by `rca_delay_us`
    /// (simulates a slow pipeline / deadline pressure).
    pub rca_delay_rate: f64,
    /// Length of an injected RCA delay, µs.
    pub rca_delay_us: u64,
    /// Maximum injected RCA delays.
    pub rca_delay_budget: u64,
    /// Probability a shard panics on a message (keyed on the shard's
    /// message sequence number, so redelivery is not re-killed).
    pub shard_panic_rate: f64,
    /// Maximum injected shard panics.
    pub shard_panic_budget: u64,
    /// Probability a shard stalls for `shard_stall_us` on a message.
    pub shard_stall_rate: f64,
    /// Length of an injected shard stall, µs.
    pub shard_stall_us: u64,
    /// Maximum injected shard stalls.
    pub shard_stall_budget: u64,
    /// Probability the baseline refresher panics folding a trace
    /// (keyed on trace id; the refresher skips the trace on restart).
    pub refresh_panic_rate: f64,
    /// Maximum injected refresher panics.
    pub refresh_panic_budget: u64,
    /// Magnitude of clock skew reported to shards, µs. Even shards
    /// run fast (`+skew`), odd shards run slow (`-skew`), modelling
    /// hosts whose clocks drift in different directions.
    pub clock_skew_us: i64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            kill_each_rca_worker_once: false,
            rca_panic_rate: 0.0,
            rca_panic_budget: u64::MAX,
            rca_delay_rate: 0.0,
            rca_delay_us: 0,
            rca_delay_budget: u64::MAX,
            shard_panic_rate: 0.0,
            shard_panic_budget: u64::MAX,
            shard_stall_rate: 0.0,
            shard_stall_us: 0,
            shard_stall_budget: u64::MAX,
            refresh_panic_rate: 0.0,
            refresh_panic_budget: u64::MAX,
            clock_skew_us: 0,
        }
    }
}

/// Remaining injections of one fault class. `take()` atomically
/// claims a token; once drained the class is permanently silent.
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

const MAX_TRACKED_SHARDS: usize = 64;

/// [`FaultInjector`] that executes a [`FaultPlan`] deterministically.
///
/// Shared across all runtime workers via `Arc`; every decision is a
/// pure function of (seed, fault domain, content key) gated by an
/// atomic budget. Injection counts are observable so tests can assert
/// both that faults actually fired and that the runtime absorbed
/// exactly that many.
#[derive(Debug)]
pub struct SeededInjector {
    plan: FaultPlan,
    rca_panics: Budget,
    rca_delays: Budget,
    shard_panics: Budget,
    shard_stalls: Budget,
    refresh_panics: Budget,
    /// Bit `w` set once worker `w`'s kill-once panic has fired.
    killed_workers: AtomicU64,
    /// Per-shard message sequence numbers (the content key for shard
    /// rolls — each delivery rolls fresh, so a redelivered batch is
    /// not deterministically re-killed into a livelock).
    shard_seq: [AtomicU64; MAX_TRACKED_SHARDS],
    injected_rca_panics: AtomicU64,
    injected_shard_panics: AtomicU64,
    injected_refresh_panics: AtomicU64,
    injected_stalls: AtomicU64,
}

impl SeededInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        SeededInjector {
            rca_panics: Budget::new(plan.rca_panic_budget),
            rca_delays: Budget::new(plan.rca_delay_budget),
            shard_panics: Budget::new(plan.shard_panic_budget),
            shard_stalls: Budget::new(plan.shard_stall_budget),
            refresh_panics: Budget::new(plan.refresh_panic_budget),
            killed_workers: AtomicU64::new(0),
            shard_seq: std::array::from_fn(|_| AtomicU64::new(0)),
            injected_rca_panics: AtomicU64::new(0),
            injected_shard_panics: AtomicU64::new(0),
            injected_refresh_panics: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            plan,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// RCA panics injected so far (kill-once kills included).
    pub fn injected_rca_panics(&self) -> u64 {
        self.injected_rca_panics.load(Ordering::Relaxed)
    }

    /// Shard panics injected so far.
    pub fn injected_shard_panics(&self) -> u64 {
        self.injected_shard_panics.load(Ordering::Relaxed)
    }

    /// Refresher panics injected so far.
    pub fn injected_refresh_panics(&self) -> u64 {
        self.injected_refresh_panics.load(Ordering::Relaxed)
    }

    /// Delays and stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::Relaxed)
    }

    /// True once every fault budget is spent (or zero-rated) — the
    /// point after which the runtime must behave fault-free. Kill-once
    /// kills complete as soon as each worker has processed one trace.
    pub fn is_silent(&self) -> bool {
        let spent = |b: &Budget, rate: f64| rate <= 0.0 || b.0.load(Ordering::Relaxed) == 0;
        spent(&self.rca_panics, self.plan.rca_panic_rate)
            && spent(&self.rca_delays, self.plan.rca_delay_rate)
            && spent(&self.shard_panics, self.plan.shard_panic_rate)
            && spent(&self.shard_stalls, self.plan.shard_stall_rate)
            && spent(&self.refresh_panics, self.plan.refresh_panic_rate)
    }

    /// Atomically claim worker `worker`'s kill-once token.
    fn claim_kill_once(&self, worker: usize) -> bool {
        if !self.plan.kill_each_rca_worker_once || worker >= 64 {
            return false;
        }
        let bit = 1u64 << worker;
        self.killed_workers.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }
}

// Fault domains keep rolls for different fault classes independent
// even when they share a content key (e.g. the same trace id).
const DOMAIN_RCA_PANIC: u64 = 1;
const DOMAIN_RCA_DELAY: u64 = 2;
const DOMAIN_SHARD_PANIC: u64 = 3;
const DOMAIN_SHARD_STALL: u64 = 4;
const DOMAIN_REFRESH_PANIC: u64 = 5;

impl FaultInjector for SeededInjector {
    fn rca_attempt(&self, worker: usize, trace: &Trace, attempt: u32) {
        // Only first attempts are sabotaged: a panic keyed on content
        // that also fired on the retry would quarantine every hit and
        // the "retry succeeds" recovery path would go untested.
        if attempt != 0 {
            return;
        }
        if self.claim_kill_once(worker) {
            self.injected_rca_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: kill-once rca worker {worker}");
        }
        let key = trace.trace_id();
        if roll(self.plan.seed, DOMAIN_RCA_PANIC, key) < self.plan.rca_panic_rate
            && self.rca_panics.take()
        {
            self.injected_rca_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected rca panic on trace {key:#x}");
        }
        if roll(self.plan.seed, DOMAIN_RCA_DELAY, key) < self.plan.rca_delay_rate
            && self.rca_delays.take()
        {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(self.plan.rca_delay_us));
        }
    }

    fn shard_message(&self, shard: usize, span_count: usize) {
        // Shutdown/tick messages (span_count == 0) are never faulted:
        // killing the drain protocol tests nothing and can wedge
        // shutdown behind an empty retry loop.
        if span_count == 0 {
            return;
        }
        let seq = self.shard_seq[shard % MAX_TRACKED_SHARDS].fetch_add(1, Ordering::Relaxed);
        let key = ((shard as u64) << 32) ^ seq;
        if roll(self.plan.seed, DOMAIN_SHARD_PANIC, key) < self.plan.shard_panic_rate
            && self.shard_panics.take()
        {
            self.injected_shard_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected shard {shard} panic at seq {seq}");
        }
        if roll(self.plan.seed, DOMAIN_SHARD_STALL, key) < self.plan.shard_stall_rate
            && self.shard_stalls.take()
        {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(self.plan.shard_stall_us));
        }
    }

    fn refresh_fold(&self, trace: &Trace) {
        let key = trace.trace_id();
        if roll(self.plan.seed, DOMAIN_REFRESH_PANIC, key) < self.plan.refresh_panic_rate
            && self.refresh_panics.take()
        {
            self.injected_refresh_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected refresh panic on trace {key:#x}");
        }
    }

    fn clock_skew_us(&self, shard: usize) -> i64 {
        if shard.is_multiple_of(2) {
            self.plan.clock_skew_us
        } else {
            -self.plan.clock_skew_us
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::{Span, Trace};

    fn trace(id: u64) -> Trace {
        let span = Span::builder(id, 1, "svc", "op").time(0, 10).build();
        Trace::assemble(vec![span]).expect("single-span trace")
    }

    #[test]
    fn rolls_are_deterministic_across_injectors() {
        let plan = FaultPlan {
            seed: 42,
            rca_panic_rate: 0.5,
            ..FaultPlan::default()
        };
        let a = SeededInjector::new(plan);
        let b = SeededInjector::new(plan);
        for id in 0..200u64 {
            let t = trace(id);
            let fa =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.rca_attempt(0, &t, 0)))
                    .is_err();
            let fb =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.rca_attempt(3, &t, 0)))
                    .is_err();
            // Same trace, same decision — worker id is not part of the key.
            assert_eq!(fa, fb, "divergent decision for trace {id}");
        }
        assert_eq!(a.injected_rca_panics(), b.injected_rca_panics());
        let hits = a.injected_rca_panics();
        // ~50% rate over 200 rolls: sanity-band, not exact.
        assert!((50..=150).contains(&hits), "implausible hit count {hits}");
    }

    #[test]
    fn retries_are_never_sabotaged() {
        let plan = FaultPlan {
            seed: 1,
            rca_panic_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = SeededInjector::new(plan);
        let t = trace(9);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.rca_attempt(0, &t, 0)
        }))
        .is_err());
        // attempt 1 (the supervised retry) must pass.
        inj.rca_attempt(0, &t, 1);
    }

    #[test]
    fn budgets_exhaust_to_silence() {
        let plan = FaultPlan {
            seed: 3,
            rca_panic_rate: 1.0,
            rca_panic_budget: 4,
            ..FaultPlan::default()
        };
        let inj = SeededInjector::new(plan);
        assert!(!inj.is_silent());
        let mut fired = 0;
        for id in 0..50u64 {
            let t = trace(id);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.rca_attempt(0, &t, 0)))
                .is_err()
            {
                fired += 1;
            }
        }
        assert_eq!(fired, 4);
        assert_eq!(inj.injected_rca_panics(), 4);
        assert!(inj.is_silent());
    }

    #[test]
    fn kill_once_fires_once_per_worker_and_skips_budget() {
        let plan = FaultPlan {
            seed: 0,
            kill_each_rca_worker_once: true,
            ..FaultPlan::default()
        };
        let inj = SeededInjector::new(plan);
        for worker in 0..3usize {
            let t = trace(worker as u64);
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inj.rca_attempt(worker, &t, 0)
            }))
            .is_err());
            // Second trace on the same worker passes.
            let t2 = trace(100 + worker as u64);
            inj.rca_attempt(worker, &t2, 0);
        }
        assert_eq!(inj.injected_rca_panics(), 3);
    }

    #[test]
    fn shard_rolls_advance_with_sequence_and_skip_control_messages() {
        let plan = FaultPlan {
            seed: 11,
            shard_panic_rate: 1.0,
            shard_panic_budget: 1,
            ..FaultPlan::default()
        };
        let inj = SeededInjector::new(plan);
        // Control messages never roll (and never advance the budget).
        inj.shard_message(0, 0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.shard_message(0, 5)
        }))
        .is_err());
        assert_eq!(inj.injected_shard_panics(), 1);
        // Budget spent: later messages sail through.
        inj.shard_message(0, 5);
        assert!(inj.is_silent());
    }

    #[test]
    fn clock_skew_alternates_sign_by_shard_parity() {
        let plan = FaultPlan {
            clock_skew_us: 250,
            ..FaultPlan::default()
        };
        let inj = SeededInjector::new(plan);
        assert_eq!(inj.clock_skew_us(0), 250);
        assert_eq!(inj.clock_skew_us(1), -250);
        assert_eq!(inj.clock_skew_us(2), 250);
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SeededInjector>();
    }
}
