//! Shard routing and the per-shard worker loop.
//!
//! Every span batch is split by trace id so that all spans of one
//! trace land on the same shard; each shard owns a private
//! [`Collector`] and [`TraceStore`] slice and therefore needs no
//! locking on the hot ingest path. Completed traces flow into the
//! shared RCA queue with a *blocking* push: a saturated RCA stage
//! stalls shard workers, their queues fill, and the ingest front-end
//! starts rejecting or shedding — backpressure end to end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sleuth_store::{Collector, TraceStore};
use sleuth_trace::{Assembler, Span, Trace, TraceId};

use crate::config::ServeConfig;
use crate::inject::FaultInjector;
use crate::metrics::MetricsRegistry;
use crate::quarantine::{QuarantineReason, QuarantineStore, QuarantinedTrace};
use crate::queue::BoundedQueue;
use crate::runtime::RcaItem;
use crate::sync::Backoff;

/// SplitMix64 finaliser — decorrelates sequential trace ids so shard
/// load stays even under monotonic id allocation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard that owns `trace_id` among the `live` shard indices, by
/// rendezvous (highest-random-weight) hashing; `None` when `live` is
/// empty.
///
/// A pure function of `(trace_id, live set)`: independent of the order
/// `live` lists the shards in and stable across runs, processes and
/// machines. Placement moves minimally — removing a shard reassigns
/// only the keys it owned, and every other key keeps its owner. The
/// in-process runtime places with `live = 0..num_shards`; the wire
/// router passes its live peers, so a dead shard's keys move to
/// survivors and survivors never reshuffle among themselves.
pub fn owner_of(trace_id: TraceId, live: impl IntoIterator<Item = usize>) -> Option<usize> {
    live.into_iter().max_by_key(|&shard| {
        let w = splitmix64(trace_id ^ splitmix64(shard as u64 ^ 0x7265_6e64_657a_7631));
        (w, shard)
    })
}

/// Message consumed by a shard worker.
#[derive(Debug)]
pub enum ShardMsg {
    /// Spans pre-routed to this shard, observed at logical `now_us`.
    Batch { spans: Vec<Span>, now_us: u64 },
    /// Advance the logical clock so idle traces can complete.
    Tick { now_us: u64 },
    /// Flush the collector, report state, and exit.
    Shutdown,
}

impl ShardMsg {
    /// Spans carried by this message (for shed accounting).
    pub fn span_count(&self) -> usize {
        match self {
            ShardMsg::Batch { spans, .. } => spans.len(),
            _ => 0,
        }
    }
}

/// What a shard worker hands back at shutdown.
#[derive(Debug)]
pub struct ShardReport {
    /// The shard's slice of stored spans.
    pub store: TraceStore,
    /// Traces dropped by collector cap eviction.
    pub evicted_traces: usize,
}

/// Everything one shard worker needs, bundled so the supervised loop
/// has a single capture.
pub(crate) struct ShardCtx {
    pub shard_id: usize,
    pub queue: Arc<BoundedQueue<ShardMsg>>,
    pub rca_queue: Arc<BoundedQueue<RcaItem>>,
    pub refresh_queue: Option<Arc<BoundedQueue<Arc<Trace>>>>,
    pub metrics: Arc<MetricsRegistry>,
    pub quarantine: Arc<QuarantineStore>,
    pub injector: Arc<dyn FaultInjector>,
    pub backoff: Backoff,
}

/// State that must survive a worker panic: the collector and store
/// (unfinished traces, the shard's span slice), metric watermarks,
/// and the message in flight when the panic hit.
struct ShardState {
    collector: Collector,
    /// Reusable trace assembler: its adjacency/BFS scratch arrays stay
    /// warm across every trace this shard completes.
    assembler: Assembler,
    store: TraceStore,
    evicted_seen: usize,
    deduped_seen: usize,
    in_flight: Option<ShardMsg>,
    resume_shutdown: bool,
}

/// Logical clock as this shard observes it, under injected skew.
fn apply_skew(now_us: u64, skew_us: i64) -> u64 {
    if skew_us >= 0 {
        now_us.saturating_add(skew_us as u64)
    } else {
        now_us.saturating_sub(skew_us.unsigned_abs())
    }
}

/// Run one shard worker to completion (until `Shutdown` or queue
/// close). Completed traces are stored locally and pushed to
/// `rca_queue` behind an `Arc`; when a `refresh_queue` is given, the
/// same `Arc` is also teed to the baseline refresher with a
/// *drop-oldest* push — no deep copy of the trace is ever made, and a
/// lagging refresher sheds stale handles instead of ever
/// backpressuring ingest.
///
/// Supervised: a panic while processing a message is caught and
/// counted (`worker_panics{stage="shard"}`); the batch in flight is
/// quarantined (its spans counted in `spans_quarantined` — they never
/// reached the collector) and the loop restarts after a bounded
/// backoff, keeping the collector and store intact. A panic during a
/// `Shutdown` flush re-runs the flush so the drain protocol still
/// completes. Completed span sets that fail [`Trace::assemble`] are
/// quarantined with the assembly error instead of being silently
/// counted.
pub(crate) fn run_shard(ctx: ShardCtx, config: &ServeConfig) -> ShardReport {
    let mut state = ShardState {
        collector: Collector::new(config.idle_timeout_us).with_caps(config.collector_caps),
        assembler: Assembler::new(),
        store: TraceStore::new(),
        evicted_seen: 0,
        deduped_seen: 0,
        in_flight: None,
        resume_shutdown: false,
    };
    let skew_us = ctx.injector.clock_skew_us(ctx.shard_id);
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| shard_loop(&ctx, &mut state, skew_us)));
        match result {
            Ok(()) => break,
            Err(_) => {
                ctx.metrics.record_worker_panic("shard", ctx.shard_id);
                match state.in_flight.take() {
                    Some(ShardMsg::Batch { spans, .. }) => {
                        // These spans never reached the collector;
                        // park them so conservation still balances.
                        ctx.metrics.spans_quarantined.add(spans.len() as u64);
                        ctx.quarantine.put(QuarantinedTrace {
                            trace_id: spans.first().map(|s| s.trace_id),
                            span_count: spans.len(),
                            reason: QuarantineReason::ShardPanic {
                                shard: ctx.shard_id,
                            },
                            origin_shard: Some(ctx.shard_id),
                            trace: None,
                        });
                    }
                    Some(ShardMsg::Shutdown) => state.resume_shutdown = true,
                    Some(ShardMsg::Tick { .. }) | None => {}
                }
                ctx.backoff.sleep_and_advance();
                ctx.metrics.record_worker_restart("shard", ctx.shard_id);
            }
        }
    }
    ShardReport {
        store: state.store,
        evicted_traces: state.collector.evicted_traces(),
    }
}

fn shard_loop(ctx: &ShardCtx, state: &mut ShardState, skew_us: i64) {
    loop {
        let msg = if state.resume_shutdown {
            state.resume_shutdown = false;
            ShardMsg::Shutdown
        } else {
            match ctx.queue.pop() {
                Some(msg) => msg,
                None => return,
            }
        };
        // Stash before the injector hook so a simulated crash right
        // here still quarantines the batch instead of dropping it.
        let span_count = msg.span_count();
        state.in_flight = Some(msg);
        ctx.injector.shard_message(ctx.shard_id, span_count);
        let Some(msg) = state.in_flight.take() else {
            continue;
        };

        let shutdown = matches!(msg, ShardMsg::Shutdown);
        let completed = match msg {
            ShardMsg::Batch { spans, now_us } => {
                let now_us = apply_skew(now_us, skew_us);
                state.collector.ingest_batch(spans, now_us);
                state.collector.poll_complete(now_us)
            }
            ShardMsg::Tick { now_us } => state.collector.poll_complete(apply_skew(now_us, skew_us)),
            ShardMsg::Shutdown => state.collector.flush(),
        };

        let newly_evicted = state.collector.evicted_spans() - state.evicted_seen;
        if newly_evicted > 0 {
            ctx.metrics.spans_evicted.add(newly_evicted as u64);
            state.evicted_seen = state.collector.evicted_spans();
        }
        let newly_deduped = state.collector.deduped_spans() - state.deduped_seen;
        if newly_deduped > 0 {
            ctx.metrics.spans_deduped.add(newly_deduped as u64);
            state.deduped_seen = state.collector.deduped_spans();
        }

        for spans in completed {
            let trace_id = spans.first().map(|s| s.trace_id);
            let span_count = spans.len();
            ctx.metrics.spans_stored.add(span_count as u64);
            state.store.extend(spans.clone());
            match state.assembler.assemble(spans) {
                Ok(trace) => {
                    ctx.metrics.traces_completed.inc();
                    let trace = Arc::new(trace);
                    if let Some(refresh) = &ctx.refresh_queue {
                        // Err means the queue closed (refresher already
                        // retired); the drop-oldest handle is counted shed.
                        if let Ok(Some(_)) = refresh.push_shedding(Arc::clone(&trace)) {
                            ctx.metrics.refresh_traces_shed.inc();
                        }
                    }
                    // Err only when the RCA queue is already closed
                    // (teardown); the trace is still stored.
                    let _ = ctx.rca_queue.push_wait(RcaItem { trace, attempts: 0 });
                }
                Err(err) => {
                    // Spans are already stored above, so no
                    // conservation term — but the operator can now see
                    // *why* the trace never got a verdict.
                    ctx.metrics.traces_malformed.inc();
                    ctx.quarantine.put(QuarantinedTrace {
                        trace_id,
                        span_count,
                        reason: QuarantineReason::Assembly(err.to_string()),
                        origin_shard: Some(ctx.shard_id),
                        trace: None,
                    });
                }
            }
        }

        if shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Determinism, order-independence and minimal movement are
    // properties over random live sets: `prop_shard_routing_deterministic`
    // in tests/property_invariants.rs.
    #[test]
    fn owner_spreads_sequential_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8000u64 {
            counts[owner_of(id, 0..n).unwrap()] += 1;
        }
        // Each shard should get roughly 1000; allow wide slack.
        assert!(counts.iter().all(|&c| c > 500 && c < 1500), "{counts:?}");
    }
}
