//! The serving runtime: ingest front-end, shard workers, RCA stage,
//! model registry, background baseline refresh, supervision, and the
//! shutdown/drain protocol.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sleuth_core::{AnalyzeOptions, SleuthPipeline};
use sleuth_store::TraceStore;
use sleuth_trace::{Span, Trace, TraceId};

use crate::config::{ClusterPolicy, ConfigError, ServeConfig, ShedPolicy};
use crate::degrade::{DegradeController, VerdictPath};
use crate::inject::{FaultInjector, NoFaults};
use crate::metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
use crate::output::{OutputHandle, OutputWake};
use crate::quarantine::{QuarantineReason, QuarantineStore, QuarantinedTrace};
use crate::queue::{BoundedQueue, PushOutcome};
use crate::refresh::{run_refresher, BaselineRefresher};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::shard::{owner_of, run_shard, ShardCtx, ShardMsg, ShardReport};
use crate::sync::{lock_or_recover, Backoff};

pub use crate::degrade::BreakerState;

/// A root-cause finding for one anomalous trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The anomalous trace.
    pub trace_id: TraceId,
    /// Root-cause services, most suspicious first.
    pub services: Vec<String>,
    /// Cluster label when localised through a micro-batch cluster
    /// (`None` for per-trace localisation and cluster noise).
    pub cluster: Option<isize>,
    /// Wall-clock localisation latency, microseconds.
    pub rca_latency_us: u64,
    /// The pipeline version that produced this verdict. Detection and
    /// localisation of one trace always run under a single version.
    pub model_version: ModelVersion,
    /// `true` when the degradation ladder shed this verdict to the
    /// cheap path (anomaly ranking, no counterfactual prefix search).
    pub degraded: bool,
}

/// Per-batch admission summary returned by
/// [`ServeRuntime::submit_batch`], in spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitReport {
    /// Spans admitted to shard queues.
    pub enqueued: usize,
    /// Spans refused (queue full under [`ShedPolicy::Reject`]).
    pub rejected: usize,
    /// Spans dropped from queue fronts ([`ShedPolicy::DropOldest`]).
    pub shed: usize,
    /// Spans refused for an inverted interval (`end_us < start_us`) —
    /// they would corrupt duration math downstream.
    pub invalid: usize,
}

/// Everything the runtime hands back after a clean shutdown.
#[derive(Debug)]
pub struct ServeReport {
    /// Verdicts not yet retrieved via [`ServeRuntime::poll_verdicts`],
    /// in emission order.
    pub verdicts: Vec<Verdict>,
    /// All shard stores merged into one queryable store.
    pub store: TraceStore,
    /// Final metrics.
    pub metrics: MetricsSnapshot,
    /// Quarantined traces not yet retrieved via
    /// [`ServeRuntime::poll_quarantined`].
    pub quarantined: Vec<QuarantinedTrace>,
}

/// A completed trace queued for RCA, carrying its supervised retry
/// count.
#[derive(Debug, Clone)]
pub(crate) struct RcaItem {
    pub trace: Arc<Trace>,
    pub attempts: u32,
}

struct ShardHandle {
    queue: Arc<BoundedQueue<ShardMsg>>,
    join: JoinHandle<ShardReport>,
}

/// Sharded online RCA runtime. Create with [`ServeRuntime::start`],
/// feed with [`ServeRuntime::submit_batch`] + [`ServeRuntime::tick`],
/// hot-swap models with [`ServeRuntime::publish`], finish with
/// [`ServeRuntime::shutdown`].
pub struct ServeRuntime {
    shards: Vec<ShardHandle>,
    rca_queue: Arc<BoundedQueue<RcaItem>>,
    rca_joins: Vec<JoinHandle<()>>,
    output: OutputHandle,
    metrics: Arc<MetricsRegistry>,
    registry: Arc<ModelRegistry>,
    controller: Arc<DegradeController>,
    refresh_queue: Option<Arc<BoundedQueue<Arc<Trace>>>>,
    refresh_join: Option<JoinHandle<()>>,
    shed_policy: ShedPolicy,
    num_shards: usize,
}

impl ServeRuntime {
    /// Spawn shard workers, the RCA stage, and (when configured) the
    /// baseline refresher around a fitted pipeline. The pipeline is
    /// published into the model registry as version 1.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `config` violates an invariant
    /// (see [`ServeConfig::validate`]); nothing is spawned.
    pub fn start(pipeline: Arc<SleuthPipeline>, config: ServeConfig) -> Result<Self, ConfigError> {
        ServeRuntime::start_with_injector(pipeline, config, Arc::new(NoFaults))
    }

    /// [`ServeRuntime::start`] with a [`FaultInjector`] wired into
    /// every worker — the chaos-testing entry point (see
    /// `sleuth-chaos`). Production callers use [`ServeRuntime::start`],
    /// which installs the no-op injector.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `config` violates an invariant.
    pub fn start_with_injector(
        pipeline: Arc<SleuthPipeline>,
        config: ServeConfig,
        injector: Arc<dyn FaultInjector>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let metrics = Arc::new(MetricsRegistry::default());
        let registry = Arc::new(ModelRegistry::with_metrics(Arc::clone(&metrics)));
        registry.publish(Arc::clone(&pipeline));
        let wake = Arc::new(OutputWake::default());
        let quarantine = Arc::new(
            QuarantineStore::new(config.resilience.quarantine_capacity, Arc::clone(&metrics))
                .with_wake(Arc::clone(&wake)),
        );
        let controller = Arc::new(DegradeController::new(&config, Arc::clone(&metrics)));
        let backoff = |resilience: &crate::config::ResilienceConfig| {
            Backoff::new(
                resilience.restart_backoff_base_us,
                resilience.restart_backoff_max_us,
            )
        };
        let rca_queue = Arc::new(
            BoundedQueue::new(config.rca_queue_capacity)
                .with_poison_counter(Arc::clone(&metrics.lock_poisoned)),
        );
        let (verdict_tx, verdict_rx) = mpsc::channel();

        let (refresh_queue, refresh_join) = match config.refresh {
            Some(refresh) => {
                let queue = Arc::new(
                    BoundedQueue::new(refresh.queue_capacity)
                        .with_poison_counter(Arc::clone(&metrics.lock_poisoned)),
                );
                let join = std::thread::Builder::new()
                    .name("sleuth-refresh".to_string())
                    .spawn({
                        let queue = Arc::clone(&queue);
                        let registry = Arc::clone(&registry);
                        let metrics = Arc::clone(&metrics);
                        let injector = Arc::clone(&injector);
                        let backoff = backoff(&config.resilience);
                        let refresher =
                            BaselineRefresher::new(Arc::clone(&pipeline), refresh.min_op_samples);
                        move || {
                            run_refresher(
                                queue,
                                registry,
                                metrics,
                                refresher,
                                refresh.interval_traces,
                                injector,
                                backoff,
                            )
                        }
                    })
                    .expect("spawn refresh worker");
                (Some(queue), Some(join))
            }
            None => (None, None),
        };

        let shards = (0..config.num_shards)
            .map(|i| {
                let queue = Arc::new(
                    BoundedQueue::new(config.shard_queue_capacity)
                        .with_poison_counter(Arc::clone(&metrics.lock_poisoned)),
                );
                let join = std::thread::Builder::new()
                    .name(format!("sleuth-shard-{i}"))
                    .spawn({
                        let ctx = ShardCtx {
                            shard_id: i,
                            queue: Arc::clone(&queue),
                            rca_queue: Arc::clone(&rca_queue),
                            refresh_queue: refresh_queue.clone(),
                            metrics: Arc::clone(&metrics),
                            quarantine: Arc::clone(&quarantine),
                            injector: Arc::clone(&injector),
                            backoff: backoff(&config.resilience),
                        };
                        let config = config.clone();
                        move || run_shard(ctx, &config)
                    })
                    .expect("spawn shard worker");
                ShardHandle { queue, join }
            })
            .collect();

        // The queue is MPMC, so RCA workers share it directly: each
        // blocking-pops its next trace, giving dynamic load balancing
        // across workers with no extra routing layer.
        let rca_joins = (0..config.rca_workers)
            .map(|worker_id| {
                std::thread::Builder::new()
                    .name(format!("sleuth-rca-{worker_id}"))
                    .spawn({
                        let ctx = RcaCtx {
                            worker_id,
                            queue: Arc::clone(&rca_queue),
                            registry: Arc::clone(&registry),
                            verdicts: verdict_tx.clone(),
                            wake: Arc::clone(&wake),
                            metrics: Arc::clone(&metrics),
                            quarantine: Arc::clone(&quarantine),
                            controller: Arc::clone(&controller),
                            injector: Arc::clone(&injector),
                            policy: config.cluster_policy,
                            num_shards: config.num_shards,
                            max_attempts: config.resilience.max_rca_attempts,
                            backoff: backoff(&config.resilience),
                            in_flight: Mutex::new(Vec::new()),
                            retries: Mutex::new(VecDeque::new()),
                            worker_latency: metrics.rca_worker_latency(worker_id),
                        };
                        move || run_rca_stage(ctx)
                    })
                    .expect("spawn rca worker")
            })
            .collect();
        drop(verdict_tx);

        Ok(ServeRuntime {
            shards,
            rca_queue,
            rca_joins,
            output: OutputHandle::new(verdict_rx, quarantine, wake),
            metrics,
            registry,
            controller,
            refresh_queue,
            refresh_join,
            shed_policy: config.shed_policy,
            num_shards: config.num_shards,
        })
    }

    /// Place a span batch by trace id ([`owner_of`] over every shard)
    /// and offer each sub-batch to its shard queue under the configured
    /// [`ShedPolicy`]. `now_us` is the logical observation time driving
    /// trace completion.
    ///
    /// Spans with an inverted interval (`end_us < start_us`) are
    /// refused up front — counted in [`SubmitReport::invalid`] and the
    /// `spans_rejected{reason="inverted_interval"}` series — because
    /// duration math downstream assumes `end ≥ start`.
    pub fn submit_batch(&self, spans: Vec<Span>, now_us: u64) -> SubmitReport {
        self.metrics.spans_submitted.add(spans.len() as u64);
        let mut report = SubmitReport::default();
        let mut routed: Vec<Vec<Span>> = (0..self.num_shards).map(|_| Vec::new()).collect();
        for span in spans {
            if span.end_us < span.start_us {
                report.invalid += 1;
                continue;
            }
            let shard = owner_of(span.trace_id, 0..self.num_shards).expect("num_shards >= 1");
            routed[shard].push(span);
        }

        for (shard, batch) in routed.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let n = batch.len();
            let queue = &self.shards[shard].queue;
            self.metrics.queue_depth.record(queue.len() as u64);
            let msg = ShardMsg::Batch {
                spans: batch,
                now_us,
            };
            match self.shed_policy {
                ShedPolicy::Reject => match queue.try_push(msg) {
                    Ok(PushOutcome::Enqueued) => report.enqueued += n,
                    Ok(PushOutcome::Rejected) | Err(_) => report.rejected += n,
                },
                ShedPolicy::DropOldest => match queue.push_shedding(msg) {
                    Ok(shed) => {
                        report.enqueued += n;
                        report.shed += shed.map_or(0, |m| m.span_count());
                    }
                    Err(_) => report.rejected += n,
                },
            }
        }
        self.metrics.spans_enqueued.add(report.enqueued as u64);
        self.metrics
            .spans_rejected
            .add((report.rejected + report.invalid) as u64);
        self.metrics
            .record_rejected_reason("queue_full", report.rejected as u64);
        self.metrics
            .record_rejected_reason("inverted_interval", report.invalid as u64);
        self.metrics.spans_shed.add(report.shed as u64);
        report
    }

    /// Advance the logical clock on every shard so idle traces can
    /// complete without new spans arriving.
    pub fn tick(&self, now_us: u64) {
        for shard in &self.shards {
            // Blocking: a tick must not be lost to a full queue, and a
            // full queue means the shard is behind anyway.
            let _ = shard.queue.push_wait(ShardMsg::Tick { now_us });
        }
    }

    /// Hot-swap the serving pipeline. Installs `pipeline` as the new
    /// current model — verdicts for traces analysed from now on carry
    /// the returned version — and blocks until all in-flight RCA work
    /// on older versions has drained, so when this returns no verdict
    /// is still being produced by a retired model.
    pub fn publish(&self, pipeline: Arc<SleuthPipeline>) -> ModelVersion {
        self.registry.publish(pipeline)
    }

    /// The model registry (shared with the RCA stage and refresher).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The currently served model version.
    pub fn current_version(&self) -> ModelVersion {
        self.registry
            .current_version()
            .expect("runtime always has a published model")
    }

    /// Verdicts emitted since the last call (non-blocking).
    pub fn poll_verdicts(&self) -> Vec<Verdict> {
        self.output.poll_verdicts()
    }

    /// Traces quarantined since the last call (non-blocking): spans
    /// that failed assembly, traces whose RCA panicked on every
    /// allowed attempt, and batches stranded by a shard panic.
    pub fn poll_quarantined(&self) -> Vec<QuarantinedTrace> {
        self.output.poll_quarantined()
    }

    /// A handle onto the same verdicts and quarantine as
    /// [`ServeRuntime::poll_verdicts`] and
    /// [`ServeRuntime::poll_quarantined`] that can block for new
    /// output ([`OutputHandle::wait`]) and is usable without access to
    /// the runtime — so a consumer can wait while another thread holds
    /// the runtime for ingest.
    pub fn output(&self) -> OutputHandle {
        self.output.clone()
    }

    /// Current circuit-breaker position (see [`BreakerState`]).
    pub fn breaker_state(&self) -> BreakerState {
        self.controller.breaker_state()
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drain protocol: flush every collector, join shard workers,
    /// retire the baseline refresher, drain the RCA queue, join the
    /// RCA stage, and return all verdicts plus the merged store, the
    /// undrained quarantine, and a final metrics snapshot.
    ///
    /// A worker that somehow died outside its supervision loop is
    /// counted (`worker_panics`) instead of propagating its panic into
    /// the caller — shutdown always completes.
    pub fn shutdown(self) -> ServeReport {
        for shard in &self.shards {
            let _ = shard.queue.push_wait(ShardMsg::Shutdown);
            shard.queue.close();
        }
        let mut store = TraceStore::new();
        for (i, shard) in self.shards.into_iter().enumerate() {
            match shard.join.join() {
                Ok(report) => store.merge(&report.store),
                // The shard died outside its supervision loop; its
                // store slice is lost but shutdown proceeds.
                Err(_) => self.metrics.record_worker_panic("shard", i),
            }
        }
        // Shards are done, so no more refresh tees: close the refresh
        // queue and let the refresher fold its backlog and exit. Any
        // final publish drains against the still-running RCA stage.
        if let Some(queue) = &self.refresh_queue {
            queue.close();
        }
        if let Some(join) = self.refresh_join {
            if join.join().is_err() {
                self.metrics.record_worker_panic("refresh", 0);
            }
        }
        // All shard output is now in the RCA queue; close it so the
        // workers exit after draining.
        self.rca_queue.close();
        for (i, join) in self.rca_joins.into_iter().enumerate() {
            if join.join().is_err() {
                self.metrics.record_worker_panic("rca", i);
            }
        }
        let verdicts = self.output.poll_verdicts();
        let quarantined = self.output.poll_quarantined();
        // Release any consumer blocked in `OutputHandle::wait`: no
        // output follows the drain above.
        self.output.wake();
        ServeReport {
            verdicts,
            store,
            metrics: self.metrics.snapshot(),
            quarantined,
        }
    }
}

/// Everything one RCA worker needs, bundled so the supervised loop has
/// a single capture.
struct RcaCtx {
    worker_id: usize,
    queue: Arc<BoundedQueue<RcaItem>>,
    registry: Arc<ModelRegistry>,
    verdicts: mpsc::Sender<Verdict>,
    /// Bumped after every verdict send (see [`OutputHandle::wait`]).
    wake: Arc<OutputWake>,
    metrics: Arc<MetricsRegistry>,
    quarantine: Arc<QuarantineStore>,
    controller: Arc<DegradeController>,
    injector: Arc<dyn FaultInjector>,
    policy: ClusterPolicy,
    /// Shard count, for recomputing a poison trace's owning shard
    /// (`owner_of`) when it is quarantined from the RCA stage.
    num_shards: usize,
    max_attempts: u32,
    backoff: Backoff,
    /// Items admitted to the current batch; on a panic the supervisor
    /// drains this to retry or quarantine them, so no popped trace is
    /// ever silently lost.
    in_flight: Mutex<Vec<RcaItem>>,
    /// Retries this worker keeps local when the shared queue cannot
    /// take them back (full, or already closed for shutdown) — the
    /// attempt budget is honoured even during the final drain.
    retries: Mutex<VecDeque<RcaItem>>,
    worker_latency: Arc<Histogram>,
}

impl RcaCtx {
    fn stash(&self) -> std::sync::MutexGuard<'_, Vec<RcaItem>> {
        lock_or_recover(&self.in_flight, Some(&self.metrics.lock_poisoned))
    }

    fn retries(&self) -> std::sync::MutexGuard<'_, VecDeque<RcaItem>> {
        lock_or_recover(&self.retries, Some(&self.metrics.lock_poisoned))
    }

    /// Send `verdict` and wake any blocked output consumer. `false`
    /// once the runtime has dropped the receiving end.
    fn emit(&self, verdict: Verdict) -> bool {
        let sent = self.verdicts.send(verdict).is_ok();
        self.wake.bump();
        sent
    }

    /// Re-queue a stranded item for another attempt, or quarantine it
    /// once its attempt budget is spent. The shared queue is preferred
    /// (any worker may serve the retry); when it refuses — full, or
    /// closed for shutdown — the retry stays local to this worker.
    fn retry_or_quarantine(&self, mut item: RcaItem) {
        item.attempts += 1;
        if item.attempts < self.max_attempts {
            match self.queue.try_push(item) {
                Ok(_) => return,
                Err(returned) => {
                    self.retries().push_back(returned);
                    return;
                }
            }
        }
        self.quarantine.put(QuarantinedTrace {
            trace_id: Some(item.trace.trace_id()),
            span_count: item.trace.len(),
            reason: QuarantineReason::RcaPanic {
                worker: self.worker_id,
                attempts: item.attempts,
            },
            origin_shard: owner_of(item.trace.trace_id(), 0..self.num_shards),
            trace: Some(item.trace),
        });
    }
}

/// One supervised RCA worker: run [`rca_loop`] until it exits cleanly;
/// on a panic, count it, retry-or-quarantine the in-flight batch,
/// inform the circuit breaker, back off, and restart the loop.
fn run_rca_stage(ctx: RcaCtx) {
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| rca_loop(&ctx)));
        match result {
            Ok(()) => return,
            Err(_) => {
                ctx.metrics.record_worker_panic("rca", ctx.worker_id);
                ctx.controller.record_error();
                let stranded: Vec<RcaItem> = ctx.stash().drain(..).collect();
                for item in stranded {
                    ctx.retry_or_quarantine(item);
                }
                ctx.backoff.sleep_and_advance();
                ctx.metrics.record_worker_restart("rca", ctx.worker_id);
            }
        }
    }
}

/// The RCA work loop: pull completed traces, detect anomalies, pick a
/// verdict path from the degradation ladder, localise, emit
/// version-tagged verdicts. `ServeConfig::rca_workers` of these run
/// concurrently over the shared MPMC queue; each records its latency
/// into both the shared `rca_latency_us` histogram and its own
/// per-worker histogram.
///
/// Each worker leases the current model once per batch, *after* the
/// blocking pop — a lease is never held while idle, so a publish can
/// only ever wait for at most one in-flight batch per worker.
/// This worker's next item: local retries first, then the shared
/// queue. After the queue closes and drains, retries stranded by a
/// panic during the final drain are still served before exiting.
fn next_item(ctx: &RcaCtx) -> Option<RcaItem> {
    if let Some(item) = ctx.retries().pop_front() {
        return Some(item);
    }
    ctx.queue.pop().or_else(|| ctx.retries().pop_front())
}

fn rca_loop(ctx: &RcaCtx) {
    let batch_max = match ctx.policy {
        ClusterPolicy::PerTrace => 1,
        ClusterPolicy::MicroBatch(n) => n,
    };
    while let Some(first) = next_item(ctx) {
        // One lease per batch: detection and localisation of these
        // traces all run under a single model version.
        let Some(lease) = ctx.registry.lease() else {
            return; // Unreachable: start() publishes before spawning us.
        };
        let pipeline = lease.pipeline();
        let mut anomalous: Vec<Arc<Trace>> = Vec::new();
        let mut pending = Some(first);
        while anomalous.len() < batch_max {
            let item = match pending.take().or_else(|| ctx.queue.try_pop()) {
                Some(item) => item,
                None => break,
            };
            let trace = Arc::clone(&item.trace);
            let attempt = item.attempts;
            // Stash before touching the trace: if the injector or the
            // detector panics, the supervisor retries or quarantines
            // this item instead of losing it.
            ctx.stash().push(item);
            ctx.injector.rca_attempt(ctx.worker_id, &trace, attempt);
            if pipeline.detector().is_anomalous(&trace) {
                ctx.metrics.traces_anomalous.inc();
                anomalous.push(trace);
            } else {
                ctx.stash().pop();
            }
        }
        if anomalous.is_empty() {
            continue;
        }

        match ctx.controller.plan(ctx.queue.len()) {
            VerdictPath::Full { probe: _ } => {
                let started = Instant::now();
                let options = match ctx.policy {
                    ClusterPolicy::PerTrace => AnalyzeOptions::unclustered(),
                    ClusterPolicy::MicroBatch(_) => AnalyzeOptions::clustered(),
                };
                let results = pipeline.analyze(&anomalous, options);
                let latency_us = started.elapsed().as_micros() as u64 / results.len().max(1) as u64;
                ctx.controller.record_success(latency_us);
                for r in results {
                    ctx.metrics.rca_latency_us.record(latency_us);
                    ctx.worker_latency.record(latency_us);
                    ctx.metrics.verdicts_emitted.inc();
                    ctx.metrics.record_verdict_version(lease.version());
                    let verdict = Verdict {
                        trace_id: anomalous[r.trace_idx].trace_id(),
                        services: r.services,
                        cluster: r.cluster,
                        rca_latency_us: latency_us,
                        model_version: lease.version(),
                        degraded: false,
                    };
                    if !ctx.emit(verdict) {
                        // Runtime dropped the receiver; stop working.
                        ctx.stash().clear();
                        return;
                    }
                }
            }
            VerdictPath::Degraded(reason) => {
                // Cheap path: the detector's anomaly ranking, no
                // counterfactual prefix search — bounded latency even
                // when the full localiser is the thing that's sick.
                let rca = pipeline.rca();
                for trace in &anomalous {
                    let started = Instant::now();
                    let mut services = rca.rank_candidates(trace);
                    services.truncate(rca.max_candidates);
                    let latency_us = started.elapsed().as_micros() as u64;
                    ctx.metrics.rca_latency_us.record(latency_us);
                    ctx.worker_latency.record(latency_us);
                    ctx.metrics.verdicts_emitted.inc();
                    ctx.metrics.verdicts_degraded.inc();
                    ctx.metrics.record_degraded(reason.label());
                    ctx.metrics.record_verdict_version(lease.version());
                    let verdict = Verdict {
                        trace_id: trace.trace_id(),
                        services,
                        cluster: None,
                        rca_latency_us: latency_us,
                        model_version: lease.version(),
                        degraded: true,
                    };
                    if !ctx.emit(verdict) {
                        ctx.stash().clear();
                        return;
                    }
                }
            }
        }
        ctx.stash().clear();
        ctx.backoff.reset();
    }
}
