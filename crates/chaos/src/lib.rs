//! Deterministic fault injection for the Sleuth serving runtime.
//!
//! `sleuth-par` made *parallelism* deterministic so it could be
//! tested; this crate does the same for *failure*. A [`FaultPlan`] is
//! a seeded, budgeted description of what should go wrong — worker
//! panics, queue stalls, clock skew, slow pipelines — and
//! [`SeededInjector`] turns it into a
//! [`sleuth_serve::FaultInjector`] whose every decision is a pure
//! function of the fault plan seed and the *content* it is deciding
//! about (trace id, worker id, attempt number). Two runs with the
//! same plan inject the same faults on the same traces regardless of
//! thread interleaving, so chaos scenarios are ordinary reproducible
//! unit tests:
//!
//! ```no_run
//! use std::sync::Arc;
//! use sleuth_chaos::{FaultPlan, SeededInjector};
//! use sleuth_serve::{ServeConfig, ServeRuntime};
//! # fn pipeline() -> Arc<sleuth_core::SleuthPipeline> { unimplemented!() }
//!
//! let plan = FaultPlan {
//!     seed: 7,
//!     kill_each_rca_worker_once: true,
//!     rca_panic_rate: 0.10,
//!     rca_panic_budget: 25,
//!     ..FaultPlan::default()
//! };
//! let injector = Arc::new(SeededInjector::new(plan));
//! let runtime = ServeRuntime::start_with_injector(
//!     pipeline(),
//!     ServeConfig::default(),
//!     Arc::clone(&injector) as Arc<dyn sleuth_serve::FaultInjector>,
//! )
//! .unwrap();
//! // … drive traffic; the runtime must absorb every injected fault …
//! let report = runtime.shutdown();
//! assert_eq!(report.metrics.poison_traces, report.quarantined.len() as u64);
//! ```
//!
//! Every fault class carries a **budget**: once spent, the injector
//! falls silent. That gives chaos runs the *eventual fault silence*
//! property the recovery proofs need — after the last injected fault,
//! the runtime must converge back to fault-free behaviour.
//!
//! [`malform`] complements the runtime faults with adversarial
//! *input* faults: span-batch corruptions (cycles, dangling parents,
//! mixed trace ids, duplicate span ids, inverted intervals) that
//! ingestion must quarantine rather than crash on.
//!
//! [`net`] extends the harness across the process boundary: a
//! [`NetFaultPlan`] drops, duplicates, reorders, corrupts, and
//! truncates wire frames between the router and its shard servers
//! (and kills connections / stalls reconnects) through the
//! [`sleuth_wire::WireFaultInjector`] seam, with the same
//! seeded-and-budgeted determinism.
//!
//! [`proc`] climbs one level further: a [`ProcFaultPlan`] decides —
//! deterministically, per harness step — which shard *process* gets
//! `kill -9`'d, `SIGSTOP`'d, or re-killed after a respawn, driving the
//! cluster self-healing gates (heartbeat detection, failover,
//! exactly-once verdict delivery across restarts).

pub mod malform;
mod mix;
pub mod net;
pub mod plan;
pub mod proc;

pub use malform::{corrupt_batch, corruption_for, Corruption};
pub use net::{NetFaultPlan, NetInjector};
pub use plan::{FaultPlan, SeededInjector};
pub use proc::{ProcFate, ProcFaultPlan, ProcInjector};
