//! Sharded online RCA serving runtime.
//!
//! The batch pipeline in `sleuth-core` answers "given this corpus,
//! where are the root causes?". This crate answers the production
//! question from §4 of the paper: spans arrive continuously, out of
//! order and across network batches, and verdicts must come out the
//! other side with bounded memory. The runtime is a small
//! thread-per-shard system:
//!
//! ```text
//!                    ┌─ shard 0: queue ─ Collector ─ TraceStore ─┐
//!  submit_batch ──►──┼─ shard 1: queue ─ Collector ─ TraceStore ─┼─► RCA queue
//!  (hash by          └─ shard N: queue ─ Collector ─ TraceStore ─┘      │
//!   trace id)                      │ (completed-trace clones,           │
//!                                  ▼  drop-oldest)              RCA stage: lease ─► verdicts
//!                            refresh queue                              ▲  (version-tagged)
//!                                  │                                    │ lease per batch
//!                        BaselineRefresher ──── publish ────► ModelRegistry ◄── publish()
//!                        (P² sketches, no refit)              (versioned hot-swap)
//! ```
//!
//! * **Ingest front-end** ([`ServeRuntime::submit_batch`]) —
//!   places span batches by trace id with rendezvous hashing
//!   ([`owner_of`]) so each trace is owned by exactly one shard; no
//!   cross-shard locking. The wire router places across processes
//!   with the same function, so a shard's death moves only its keys.
//! * **Bounded queues with explicit backpressure** ([`BoundedQueue`])
//!   — per-shard capacity is configurable; a full queue either
//!   rejects the new batch ([`ShedPolicy::Reject`]) or drops the
//!   oldest pending one ([`ShedPolicy::DropOldest`]), and every
//!   outcome is reported ([`SubmitReport`]) and counted.
//! * **RCA stage** — pulls completed traces, filters through the
//!   fitted anomaly detector, localises root causes via a short-lived
//!   [`ModelLease`] on the registry's current pipeline, and emits
//!   version-tagged [`Verdict`]s.
//! * **Output wake** ([`ServeRuntime::output`], [`OutputHandle`]) —
//!   every verdict sent and every quarantine entry parked bumps one
//!   epoch-counted wake, so a consumer blocks until there is output
//!   instead of polling, without holding the runtime.
//! * **Model registry + hot swap** ([`ModelRegistry`],
//!   [`ServeRuntime::publish`]) — versioned `Arc<SleuthPipeline>`
//!   handles behind an epoch cell; a publish installs the new model
//!   atomically and drains in-flight RCA work on retired versions.
//! * **Incremental baseline refresh** ([`BaselineRefresher`],
//!   [`RefreshConfig`]) — completed traces are folded into streaming
//!   quantile sketches and periodically re-published as a refreshed
//!   pipeline (same GNN, fresh baselines — no refit).
//! * **Built-in metrics** ([`MetricsRegistry`]) — atomic counters and
//!   fixed-bucket histograms, snapshotable ([`MetricsSnapshot`]) and
//!   renderable as Prometheus-style text.
//! * **Clean shutdown** ([`ServeRuntime::shutdown`]) — flushes every
//!   collector, joins all workers, drains the RCA queue, and returns
//!   the verdicts, the merged [`sleuth_store::TraceStore`], and a
//!   final snapshot.
//! * **Supervision and quarantine** ([`crate::sync`],
//!   [`QuarantineStore`]) — every worker loop runs under
//!   `catch_unwind`: a panic is counted
//!   (`worker_panics{stage,worker}`), the work in flight is retried up
//!   to `max_rca_attempts` and then parked in a bounded quarantine
//!   ([`ServeRuntime::poll_quarantined`]), and the worker restarts
//!   with bounded exponential backoff. Mutexes recover from poisoning
//!   instead of cascading the crash.
//! * **Graceful degradation** ([`crate::degrade`],
//!   [`Verdict::degraded`]) — per-trace RCA deadlines
//!   ([`ServeConfig::rca_deadline_us`]), a completed-trace queue
//!   high-water mark, and a circuit breaker
//!   ([`ServeRuntime::breaker_state`]) shed verdicts to a cheap
//!   anomaly-ranking path under pressure instead of falling over.
//! * **Fault injection seam** ([`FaultInjector`],
//!   [`ServeRuntime::start_with_injector`]) — the deterministic hook
//!   surface the `sleuth-chaos` crate drives in tests.
//!
//! After a full drain the span accounting is conservative:
//! `spans_submitted = spans_rejected + spans_shed + spans_evicted +
//! spans_quarantined + spans_stored` (where `spans_rejected` counts
//! both full queues and invalid inverted-interval spans, and
//! `spans_quarantined` counts batches stranded by a shard panic).

pub mod config;
pub mod degrade;
pub mod inject;
pub mod metrics;
pub mod output;
pub mod quarantine;
pub mod queue;
pub mod refresh;
pub mod registry;
pub mod runtime;
pub mod shard;
pub mod sync;

pub use config::{
    ClusterPolicy, ConfigError, RefreshConfig, ResilienceConfig, ServeConfig, ServeConfigBuilder,
    ShedPolicy,
};
pub use degrade::{BreakerState, DegradeReason};
pub use inject::{FaultInjector, NoFaults};
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use output::OutputHandle;
pub use quarantine::{QuarantineReason, QuarantineStore, QuarantinedTrace};
pub use queue::{BoundedQueue, PushOutcome};
pub use refresh::{BaselineRefresher, P2Quantile};
pub use registry::{ModelLease, ModelRegistry, ModelVersion};
pub use runtime::{ServeReport, ServeRuntime, SubmitReport, Verdict};
pub use shard::owner_of;
pub use sync::{lock_or_recover, Backoff};
