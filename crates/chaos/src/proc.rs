//! Seeded process-level fault plans for the cluster self-healing
//! layer.
//!
//! [`NetFaultPlan`](crate::NetFaultPlan) sabotages frames *between*
//! processes; a [`ProcFaultPlan`] sabotages the processes themselves:
//! `kill -9` (the process vanishes, sockets reset), `SIGSTOP` stalls
//! (the process keeps its sockets open but answers nothing — the case
//! only heartbeats can detect), and restart storms (a respawned shard
//! is killed again as soon as it comes back).
//!
//! The injector itself never touches a PID. It is a pure *decision*
//! oracle — [`ProcInjector::step_fate`] maps (seed, domain, step) to a
//! [`ProcFate`] — and the test harness owning the real `Child`
//! processes applies the verdicts. That split keeps the chaos crate
//! OS-agnostic and the decisions deterministic: two runs with the same
//! plan kill and stall the same shards at the same steps regardless of
//! scheduling, and every class is budgeted so any finite plan
//! eventually falls silent, after which the fault-transparency gate
//! (verdicts over healthy traces ≡ fault-free run) can be asserted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::mix::{roll, splitmix64};

/// Declarative description of what the *cluster* should do wrong.
/// Rates are probabilities in `[0, 1]` rolled once per harness step
/// (e.g. per submitted batch); each class has a budget so the plan is
/// finite. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcFaultPlan {
    /// Seed mixed into every roll.
    pub seed: u64,
    /// Number of shard processes decisions are spread over.
    pub num_shards: usize,
    /// Probability a step kills one shard with `SIGKILL` (sockets
    /// reset; the router must fail its traces over to survivors).
    pub kill_rate: f64,
    /// Maximum kills.
    pub kill_budget: u64,
    /// Probability a step `SIGSTOP`s one shard for [`Self::stall`]
    /// (sockets stay open; only heartbeat misses can detect it).
    pub stall_rate: f64,
    /// Maximum stalls.
    pub stall_budget: u64,
    /// How long a stalled shard stays stopped before the harness
    /// `SIGCONT`s or kills it.
    pub stall: Duration,
    /// Probability a step re-kills a shard that was respawned earlier
    /// in the run (a restart storm: the supervisor's backoff budget is
    /// what ends it).
    pub respawn_kill_rate: f64,
    /// Maximum restart-storm kills.
    pub respawn_kill_budget: u64,
}

impl Default for ProcFaultPlan {
    fn default() -> Self {
        ProcFaultPlan {
            seed: 0,
            num_shards: 1,
            kill_rate: 0.0,
            kill_budget: u64::MAX,
            stall_rate: 0.0,
            stall_budget: u64::MAX,
            stall: Duration::from_millis(500),
            respawn_kill_rate: 0.0,
            respawn_kill_budget: u64::MAX,
        }
    }
}

/// What the harness should do to the fleet at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcFate {
    /// Leave every process alone.
    Spare,
    /// `kill -9` the given shard.
    Kill(usize),
    /// `SIGSTOP` the given shard for the plan's stall duration.
    Stall(usize),
    /// Re-kill the given shard, which the supervisor already respawned
    /// at least once (restart storm).
    RespawnKill(usize),
}

/// Remaining injections of one fault class (same one-way semantics as
/// the net injector's budgets).
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

// Independent roll domains per fault class (distinct from the net
// injector's 0x10..=0x15 block by convention, though the crates never
// mix seeds).
const DOMAIN_KILL: u64 = 0x20;
const DOMAIN_STALL: u64 = 0x21;
const DOMAIN_RESPAWN_KILL: u64 = 0x22;
const DOMAIN_VICTIM: u64 = 0x23;

/// Decision oracle executing a [`ProcFaultPlan`] deterministically.
/// Share one instance across the harness; budgets are global to the
/// run.
#[derive(Debug)]
pub struct ProcInjector {
    plan: ProcFaultPlan,
    kills: Budget,
    stalls: Budget,
    respawn_kills: Budget,
    injected_kills: AtomicU64,
    injected_stalls: AtomicU64,
    injected_respawn_kills: AtomicU64,
}

impl ProcInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: ProcFaultPlan) -> Self {
        ProcInjector {
            kills: Budget::new(plan.kill_budget),
            stalls: Budget::new(plan.stall_budget),
            respawn_kills: Budget::new(plan.respawn_kill_budget),
            injected_kills: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            injected_respawn_kills: AtomicU64::new(0),
            plan,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &ProcFaultPlan {
        &self.plan
    }

    /// The fate of harness step `step`. Destructive classes roll
    /// first, mirroring the net injector's priority rule; the victim
    /// shard is itself a deterministic function of the step.
    pub fn step_fate(&self, step: u64) -> ProcFate {
        let seed = self.plan.seed;
        let victim = if self.plan.num_shards == 0 {
            0
        } else {
            (splitmix64(seed ^ splitmix64(DOMAIN_VICTIM) ^ splitmix64(step))
                % self.plan.num_shards as u64) as usize
        };
        if roll(seed, DOMAIN_KILL, step) < self.plan.kill_rate && self.kills.take() {
            self.injected_kills.fetch_add(1, Ordering::Relaxed);
            return ProcFate::Kill(victim);
        }
        if roll(seed, DOMAIN_STALL, step) < self.plan.stall_rate && self.stalls.take() {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            return ProcFate::Stall(victim);
        }
        if roll(seed, DOMAIN_RESPAWN_KILL, step) < self.plan.respawn_kill_rate
            && self.respawn_kills.take()
        {
            self.injected_respawn_kills.fetch_add(1, Ordering::Relaxed);
            return ProcFate::RespawnKill(victim);
        }
        ProcFate::Spare
    }

    /// Kills injected so far.
    pub fn injected_kills(&self) -> u64 {
        self.injected_kills.load(Ordering::Relaxed)
    }

    /// Stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::Relaxed)
    }

    /// Restart-storm kills injected so far.
    pub fn injected_respawn_kills(&self) -> u64 {
        self.injected_respawn_kills.load(Ordering::Relaxed)
    }

    /// Total process faults injected across every class.
    pub fn injected_total(&self) -> u64 {
        self.injected_kills() + self.injected_stalls() + self.injected_respawn_kills()
    }

    /// True once every fault budget is spent (or zero-rated) — after
    /// this point the fleet runs unmolested and the system must
    /// converge back to fault-free verdicts.
    pub fn is_silent(&self) -> bool {
        let spent = |b: &Budget, rate: f64| rate <= 0.0 || b.0.load(Ordering::Relaxed) == 0;
        spent(&self.kills, self.plan.kill_rate)
            && spent(&self.stalls, self.plan.stall_rate)
            && spent(&self.respawn_kills, self.plan.respawn_kill_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_spares_everything() {
        let inj = ProcInjector::new(ProcFaultPlan::default());
        for step in 0..200 {
            assert_eq!(inj.step_fate(step), ProcFate::Spare);
        }
        assert_eq!(inj.injected_total(), 0);
        assert!(inj.is_silent());
    }

    #[test]
    fn fates_are_deterministic_across_injectors() {
        let plan = ProcFaultPlan {
            seed: 7,
            num_shards: 3,
            kill_rate: 0.1,
            stall_rate: 0.1,
            respawn_kill_rate: 0.1,
            ..ProcFaultPlan::default()
        };
        let a = ProcInjector::new(plan);
        let b = ProcInjector::new(plan);
        for step in 0..500 {
            assert_eq!(a.step_fate(step), b.step_fate(step));
        }
        assert!(a.injected_total() > 0, "30% total rate never fired");
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn budgets_exhaust_to_silence() {
        let plan = ProcFaultPlan {
            seed: 3,
            num_shards: 4,
            kill_rate: 1.0,
            kill_budget: 2,
            stall_rate: 1.0,
            stall_budget: 1,
            ..ProcFaultPlan::default()
        };
        let inj = ProcInjector::new(plan);
        assert!(!inj.is_silent());
        let mut kills = 0;
        let mut stalls = 0;
        for step in 0..100 {
            match inj.step_fate(step) {
                ProcFate::Kill(shard) => {
                    assert!(shard < 4);
                    kills += 1;
                }
                ProcFate::Stall(shard) => {
                    assert!(shard < 4);
                    stalls += 1;
                }
                ProcFate::RespawnKill(_) => unreachable!("class is zero-rated"),
                ProcFate::Spare => {}
            }
        }
        assert_eq!((kills, stalls), (2, 1));
        assert_eq!(inj.injected_kills(), 2);
        assert_eq!(inj.injected_stalls(), 1);
        assert!(inj.is_silent());
        assert_eq!(inj.step_fate(999), ProcFate::Spare);
    }

    #[test]
    fn victims_spread_across_the_fleet() {
        let plan = ProcFaultPlan {
            seed: 11,
            num_shards: 3,
            kill_rate: 1.0,
            ..ProcFaultPlan::default()
        };
        let inj = ProcInjector::new(plan);
        let mut seen = [false; 3];
        for step in 0..64 {
            if let ProcFate::Kill(shard) = inj.step_fate(step) {
                seen[shard] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "some shard never targeted: {seen:?}"
        );
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProcInjector>();
    }
}
