//! Chaos tests for the self-healing serving runtime: injected worker
//! panics, malformed span batches, queue stalls, and clock skew must
//! all be absorbed — zero escaped panics, every healthy trace
//! verdicted (full or degraded), every broken one quarantined, and
//! span conservation intact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use sleuth::chaos::{corrupt_batch, Corruption, FaultPlan, SeededInjector};
use sleuth::core::pipeline::{AnalyzeOptions, PipelineConfig, SleuthPipeline};
use sleuth::gnn::TrainConfig;
use sleuth::serve::{
    owner_of, FaultInjector, QuarantineReason, RefreshConfig, ResilienceConfig, ServeConfig,
    ServeRuntime,
};
use sleuth::synth::presets;
use sleuth::synth::workload::CorpusBuilder;
use sleuth::trace::{Span, Trace};

/// One quick-fitted pipeline shared by every test in this file.
fn pipeline() -> Arc<SleuthPipeline> {
    static PIPELINE: OnceLock<Arc<SleuthPipeline>> = OnceLock::new();
    Arc::clone(PIPELINE.get_or_init(|| {
        let app = presets::synthetic(12, 1);
        let train = CorpusBuilder::new(&app).seed(5).normal_traces(120).plain_traces();
        let config = PipelineConfig {
            train: TrainConfig { epochs: 12, batch_traces: 32, lr: 1e-2, seed: 0 },
            ..PipelineConfig::default()
        };
        Arc::new(SleuthPipeline::fit(&train, &config))
    }))
}

fn chaos_traces(n: usize) -> Vec<Trace> {
    let app = presets::synthetic(12, 1);
    CorpusBuilder::new(&app)
        .seed(5)
        .mixed_traces(n, 8)
        .traces
        .into_iter()
        .map(|t| t.trace)
        .collect()
}

/// Rebadge one trace's spans under a fresh trace id.
fn rebadged(spans: &[Span], trace_id: u64) -> Vec<Span> {
    spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.trace_id = trace_id;
            s
        })
        .collect()
}

/// The acceptance storm from the failure model: every RCA worker
/// killed at least once, a budgeted stream of additional RCA panics,
/// refresher panics, shard stalls, clock skew, and >5% of batches
/// structurally corrupted — the runtime must absorb all of it with
/// zero escaped panics, verdict every healthy anomalous trace
/// (degraded or full), quarantine every corrupted one, and keep the
/// span accounting conservative.
#[test]
fn storm_of_panics_and_malformed_batches_is_absorbed() {
    let pipeline = pipeline();
    let traces = chaos_traces(80);
    let workers = 2usize;

    // Corrupt every 8th trace (12.5% of batches) with a corruption
    // that guarantees assembly failure.
    let kinds = [Corruption::Cycle, Corruption::DanglingParent];
    let mut corrupted_ids: BTreeSet<u64> = BTreeSet::new();
    let mut batches: Vec<Vec<Span>> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let mut spans = t.spans().to_vec();
        if i % 8 == 0 {
            let kind = kinds[(i / 8) % kinds.len()];
            assert!(kind.malforms_trace());
            corrupt_batch(&mut spans, kind);
            corrupted_ids.insert(t.trace_id());
        }
        batches.push(spans);
    }

    let plan = FaultPlan {
        seed: 1234,
        kill_each_rca_worker_once: true,
        rca_panic_rate: 0.25,
        rca_panic_budget: 12,
        rca_delay_rate: 0.1,
        rca_delay_us: 200,
        rca_delay_budget: 6,
        shard_stall_rate: 0.1,
        shard_stall_us: 200,
        shard_stall_budget: 6,
        refresh_panic_rate: 1.0,
        refresh_panic_budget: 3,
        clock_skew_us: 200,
        ..FaultPlan::default()
    };
    let injector = Arc::new(SeededInjector::new(plan));
    let runtime = ServeRuntime::start_with_injector(
        Arc::clone(&pipeline),
        ServeConfig {
            num_shards: 4,
            rca_workers: workers,
            idle_timeout_us: 1_000_000,
            // Fold traces into the refresher (so refresh panics fire)
            // but never publish: verdicts must stay comparable to the
            // fault-free batch pipeline.
            refresh: Some(RefreshConfig {
                interval_traces: 1_000_000,
                ..RefreshConfig::default()
            }),
            ..ServeConfig::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    )
    .expect("valid serve config");

    let mut clock = 0;
    for batch in batches {
        let report = runtime.submit_batch(batch, clock);
        assert_eq!(report.rejected + report.shed, 0, "no overload expected");
        clock += 1_000;
    }
    runtime.tick(clock + 2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    // Supervision coverage: every RCA worker panicked (kill-once) and
    // restarted at least once, and the counts are exposed.
    for w in 0..workers {
        let panics = m
            .worker_panics
            .iter()
            .find(|(stage, id, _)| stage == "rca" && *id == w)
            .map_or(0, |&(_, _, n)| n);
        assert!(panics >= 1, "rca worker {w} was never killed");
        let restarts = m
            .worker_restarts
            .iter()
            .find(|(stage, id, _)| stage == "rca" && *id == w)
            .map_or(0, |&(_, _, n)| n);
        assert!(restarts >= 1, "rca worker {w} never restarted");
    }
    assert!(injector.injected_rca_panics() >= workers as u64);
    assert!(injector.is_silent(), "fault budgets should be spent");

    // The refresher was killed (and restarted) exactly budget times,
    // skipping the poisoned folds.
    let refresh_panics = m
        .worker_panics
        .iter()
        .find(|(stage, _, _)| stage == "refresh")
        .map_or(0, |&(_, _, n)| n);
    assert_eq!(refresh_panics, injector.injected_refresh_panics());
    assert_eq!(refresh_panics, 3);

    // Every corrupted batch quarantined with the assembly error;
    // nothing else poisoned (attempt-0 faults always succeed on retry).
    assert_eq!(m.traces_malformed, corrupted_ids.len() as u64);
    assert_eq!(m.poison_traces, report.quarantined.len() as u64);
    let assembly_ids: BTreeSet<u64> = report
        .quarantined
        .iter()
        .filter(|q| matches!(q.reason, QuarantineReason::Assembly(_)))
        .filter_map(|q| q.trace_id)
        .collect();
    assert_eq!(assembly_ids, corrupted_ids);
    let rca_quarantined = report
        .quarantined
        .iter()
        .filter(|q| matches!(q.reason, QuarantineReason::RcaPanic { .. }))
        .count();
    assert_eq!(rca_quarantined, 0, "a retried attempt-0 fault was quarantined");

    // Every healthy anomalous trace got a verdict — full or degraded —
    // and full verdicts match the batch pipeline exactly.
    let healthy_anomalous: BTreeMap<u64, Vec<String>> = {
        let survivors: Vec<&Trace> = traces
            .iter()
            .filter(|t| !corrupted_ids.contains(&t.trace_id()))
            .filter(|t| pipeline.detector().is_anomalous(t))
            .collect();
        survivors
            .iter()
            .zip(pipeline.analyze(&survivors, AnalyzeOptions::unclustered()))
            .map(|(t, r)| (t.trace_id(), r.services))
            .collect()
    };
    assert!(!healthy_anomalous.is_empty(), "corpus produced no anomalies");
    let online_ids: BTreeSet<u64> = report.verdicts.iter().map(|v| v.trace_id).collect();
    assert_eq!(online_ids.len(), report.verdicts.len(), "duplicate verdicts");
    let expected_ids: BTreeSet<u64> = healthy_anomalous.keys().copied().collect();
    assert_eq!(online_ids, expected_ids);
    for v in &report.verdicts {
        if !v.degraded {
            assert_eq!(&v.services, &healthy_anomalous[&v.trace_id]);
        } else {
            assert!(v.cluster.is_none(), "degraded verdicts skip clustering");
        }
    }
    assert_eq!(m.verdicts_emitted, report.verdicts.len() as u64);
    let degraded_count = report.verdicts.iter().filter(|v| v.degraded).count();
    assert_eq!(m.verdicts_degraded, degraded_count as u64);

    // Span conservation, extended with the quarantine term.
    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined
    );
    assert_eq!(m.spans_quarantined, 0, "no shard panics were planned");
}

/// Satellite: malformed batches — cycles, dangling parents, mixed
/// trace ids — flow through `submit_batch` without panicking anything;
/// each broken fragment is quarantined with its assembly error while
/// healthy traffic is verdicted normally.
#[test]
fn malformed_batches_quarantine_healthy_traffic_flows() {
    let pipeline = pipeline();
    let traces = chaos_traces(12);
    let kinds = [
        Some(Corruption::Cycle),
        Some(Corruption::DanglingParent),
        Some(Corruption::MixedTraceIds),
        None,
    ];

    // Controlled, well-spaced trace ids so a MixedTraceIds fragment
    // (id + 1) can never collide with another trace.
    let mut batches: Vec<Vec<Span>> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let mut spans = rebadged(t.spans(), 1_000 * (i as u64 + 1));
        if let Some(kind) = kinds[i % kinds.len()] {
            corrupt_batch(&mut spans, kind);
        }
        batches.push(spans);
    }

    // Ground truth per batch, mirroring the per-trace collector: group
    // by trace id; groups that assemble are analyzed, the rest must be
    // quarantined.
    let mut expected_malformed = 0u64;
    let mut assembled: Vec<Trace> = Vec::new();
    for batch in &batches {
        let mut groups: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for span in batch {
            groups.entry(span.trace_id).or_default().push(span.clone());
        }
        for (_, spans) in groups {
            match Trace::assemble(spans) {
                Ok(trace) => assembled.push(trace),
                Err(_) => expected_malformed += 1,
            }
        }
    }
    assert!(expected_malformed >= 4, "corruptions produced too few broken fragments");
    let anomalous: Vec<&Trace> = assembled
        .iter()
        .filter(|t| pipeline.detector().is_anomalous(t))
        .collect();
    let expected_verdicts: BTreeMap<u64, Vec<String>> = anomalous
        .iter()
        .zip(pipeline.analyze(&anomalous, AnalyzeOptions::unclustered()))
        .map(|(t, r)| (t.trace_id(), r.services))
        .collect();

    let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig {
        num_shards: 3,
        idle_timeout_us: 1_000_000,
        ..ServeConfig::default()
    })
    .expect("valid serve config");
    let mut clock = 0;
    for batch in batches {
        let report = runtime.submit_batch(batch, clock);
        assert_eq!(report.rejected + report.shed + report.invalid, 0);
        clock += 1_000;
    }
    runtime.tick(clock + 2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    assert!(m.worker_panics.is_empty(), "malformed input crashed a worker");
    assert_eq!(m.traces_malformed, expected_malformed);
    assert_eq!(report.quarantined.len() as u64, expected_malformed);
    for q in &report.quarantined {
        assert!(
            matches!(q.reason, QuarantineReason::Assembly(_)),
            "unexpected quarantine reason {:?}",
            q.reason
        );
        assert!(q.trace_id.is_some() && q.span_count > 0);
    }
    assert!(m
        .quarantined_by_reason
        .iter()
        .any(|(reason, n)| reason == "assembly" && *n == expected_malformed));

    let online: BTreeMap<u64, Vec<String>> = report
        .verdicts
        .iter()
        .map(|v| (v.trace_id, v.services.clone()))
        .collect();
    assert_eq!(online, expected_verdicts);
    assert!(report.verdicts.iter().all(|v| !v.degraded));

    // Malformed spans are stored (they arrived before assembly), so
    // the original conservation identity still balances.
    assert_eq!(
        m.spans_submitted,
        m.spans_stored + m.spans_rejected + m.spans_shed + m.spans_evicted + m.spans_deduped
    );
}

/// Satellite: inverted-interval spans are refused at submission,
/// reported per batch, and labelled in the metrics — the rest of the
/// batch is unaffected.
#[test]
fn inverted_intervals_are_rejected_and_counted() {
    let pipeline = pipeline();
    let trace = chaos_traces(8)
        .into_iter()
        .find(|t| t.len() >= 3)
        .expect("corpus has a multi-span trace");
    let mut spans = trace.spans().to_vec();
    let healthy = spans.len() - 1;
    corrupt_batch(&mut spans, Corruption::InvertedInterval);

    let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig::default())
        .expect("valid serve config");
    let report = runtime.submit_batch(spans, 0);
    assert_eq!(report.invalid, 1);
    assert_eq!(report.enqueued, healthy);
    assert_eq!(report.rejected + report.shed, 0);

    let final_report = runtime.shutdown();
    let m = &final_report.metrics;
    assert_eq!(m.spans_rejected, 1);
    assert!(m
        .spans_rejected_by_reason
        .iter()
        .any(|(reason, n)| reason == "inverted_interval" && *n == 1));
    let text = m.render_text();
    assert!(text.contains("sleuth_serve_spans_rejected_total{reason=\"inverted_interval\"} 1"));
    assert_eq!(m.spans_stored, healthy as u64);
    assert_eq!(
        m.spans_submitted,
        m.spans_stored + m.spans_rejected + m.spans_shed + m.spans_evicted + m.spans_deduped
    );
}

/// With retries disabled, a run of injected RCA panics quarantines the
/// poison traces, trips the circuit breaker, and serves the backlog
/// degraded until the cool-down probe closes it again.
#[test]
fn poison_traces_trip_the_breaker_and_degrade() {
    let pipeline = pipeline();
    let traces = chaos_traces(40);
    let anomalous = traces
        .iter()
        .find(|t| pipeline.detector().is_anomalous(t))
        .expect("chaos corpus contains an anomaly");

    let total = 30u64;
    let plan = FaultPlan {
        seed: 7,
        rca_panic_rate: 1.0,
        rca_panic_budget: 5,
        ..FaultPlan::default()
    };
    let injector = Arc::new(SeededInjector::new(plan));
    let runtime = ServeRuntime::start_with_injector(
        Arc::clone(&pipeline),
        ServeConfig {
            num_shards: 4,
            rca_workers: 1,
            idle_timeout_us: 1_000_000,
            resilience: ResilienceConfig {
                max_rca_attempts: 1, // first panic quarantines
                breaker_threshold: 3,
                breaker_cooldown: 4,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    )
    .expect("valid serve config");

    for i in 0..total {
        let report = runtime.submit_batch(rebadged(anomalous.spans(), 50_000 + i), 0);
        assert_eq!(report.rejected + report.shed, 0);
    }
    runtime.tick(2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    // The 5 budgeted panics each quarantine their trace (no retries).
    assert_eq!(injector.injected_rca_panics(), 5);
    let poisoned: Vec<_> = report
        .quarantined
        .iter()
        .filter(|q| matches!(q.reason, QuarantineReason::RcaPanic { worker: 0, attempts: 1 }))
        .collect();
    assert_eq!(poisoned.len(), 5);
    assert!(poisoned.iter().all(|q| q.trace.is_some()), "poison trace handle kept");
    assert_eq!(m.poison_traces, 5);

    // Three consecutive crashes trip the breaker; the post-storm
    // backlog is served degraded until the half-open probe succeeds.
    assert!(m.breaker_trips >= 1);
    assert!(m.verdicts_degraded >= 1);
    assert!(m
        .degraded_by_reason
        .iter()
        .any(|(reason, n)| reason == "breaker_open" && *n >= 1));
    assert_eq!(m.verdicts_emitted, total - 5);
    assert_eq!(report.verdicts.len() as u64, total - 5);
    let degraded: Vec<_> = report.verdicts.iter().filter(|v| v.degraded).collect();
    assert_eq!(degraded.len() as u64, m.verdicts_degraded);
    assert!(degraded.iter().all(|v| v.cluster.is_none()));
    // Every submitted trace is accounted for: verdicted or poisoned.
    let mut seen: BTreeSet<u64> = report.verdicts.iter().map(|v| v.trace_id).collect();
    seen.extend(poisoned.iter().filter_map(|q| q.trace_id));
    let expected: BTreeSet<u64> = (0..total).map(|i| 50_000 + i).collect();
    assert_eq!(seen, expected);
}

/// An aggressive RCA deadline latches the degradation ladder: after
/// the first over-deadline localisation, verdicts shed to the cheap
/// path (with periodic full-path probes) — but every trace is still
/// verdicted.
#[test]
fn rca_deadline_sheds_to_degraded_verdicts() {
    let pipeline = pipeline();
    let traces = chaos_traces(40);
    let anomalous = traces
        .iter()
        .find(|t| pipeline.detector().is_anomalous(t))
        .expect("chaos corpus contains an anomaly");

    let total = 20u64;
    let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig {
        num_shards: 2,
        rca_workers: 1,
        idle_timeout_us: 1_000_000,
        rca_deadline_us: Some(1), // full localisation always overruns
        ..ServeConfig::default()
    })
    .expect("valid serve config");
    for i in 0..total {
        let report = runtime.submit_batch(rebadged(anomalous.spans(), 60_000 + i), 0);
        assert_eq!(report.rejected + report.shed, 0);
    }
    runtime.tick(2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    assert_eq!(m.verdicts_emitted, total);
    assert!(m.verdicts_degraded >= 1, "deadline never shed");
    assert!(
        m.verdicts_degraded < total,
        "probes should keep trying the full path"
    );
    assert!(m
        .degraded_by_reason
        .iter()
        .any(|(reason, n)| reason == "deadline" && *n >= 1));
    let ids: BTreeSet<u64> = report.verdicts.iter().map(|v| v.trace_id).collect();
    assert_eq!(ids.len() as u64, total, "every trace verdicted exactly once");
}

/// A shard worker killed mid-batch quarantines the in-flight spans
/// (they never reached the collector), restarts, and keeps serving —
/// with the extended conservation identity balancing the books.
#[test]
fn shard_panics_quarantine_in_flight_batches() {
    let pipeline = pipeline();
    let traces = chaos_traces(40);
    let anomalous = traces
        .iter()
        .find(|t| pipeline.detector().is_anomalous(t))
        .expect("chaos corpus contains an anomaly");
    let span_count = anomalous.len() as u64;

    let total = 20u64;
    let plan = FaultPlan {
        seed: 21,
        shard_panic_rate: 1.0,
        shard_panic_budget: 2,
        ..FaultPlan::default()
    };
    let injector = Arc::new(SeededInjector::new(plan));
    let runtime = ServeRuntime::start_with_injector(
        Arc::clone(&pipeline),
        ServeConfig {
            num_shards: 2,
            idle_timeout_us: 1_000_000,
            ..ServeConfig::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    )
    .expect("valid serve config");
    for i in 0..total {
        let report = runtime.submit_batch(rebadged(anomalous.spans(), 70_000 + i), 0);
        assert_eq!(report.rejected + report.shed, 0);
    }
    runtime.tick(2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    assert_eq!(injector.injected_shard_panics(), 2);
    let killed: Vec<_> = report
        .quarantined
        .iter()
        .filter(|q| matches!(q.reason, QuarantineReason::ShardPanic { .. }))
        .collect();
    assert_eq!(killed.len(), 2);
    assert_eq!(m.spans_quarantined, 2 * span_count);
    let shard_panics: u64 = m
        .worker_panics
        .iter()
        .filter(|(stage, _, _)| stage == "shard")
        .map(|&(_, _, n)| n)
        .sum();
    assert_eq!(shard_panics, 2);
    let shard_restarts: u64 = m
        .worker_restarts
        .iter()
        .filter(|(stage, _, _)| stage == "shard")
        .map(|&(_, _, n)| n)
        .sum();
    assert_eq!(shard_restarts, 2);

    // The 18 surviving traces complete and are verdicted.
    assert_eq!(m.traces_completed, total - 2);
    let lost: BTreeSet<u64> = killed.iter().filter_map(|q| q.trace_id).collect();
    let verdicted: BTreeSet<u64> = report.verdicts.iter().map(|v| v.trace_id).collect();
    let expected: BTreeSet<u64> = (0..total)
        .map(|i| 70_000 + i)
        .filter(|id| !lost.contains(id))
        .collect();
    assert_eq!(verdicted, expected);

    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined
    );
}

/// A shard-panic storm that overflows a tiny quarantine buffer: the
/// store keeps only the newest `quarantine_capacity` entries (oldest
/// dropped and counted in `quarantine_dropped`), while the monotonic
/// `poison_traces` and `spans_quarantined` counters keep *exact* books
/// — the conservation identity must balance even though most
/// quarantined entries were evicted from the buffer itself.
#[test]
fn quarantine_storm_wraps_buffer_with_exact_accounting() {
    let pipeline = pipeline();
    let traces = chaos_traces(4);
    let spans = traces[0].spans();
    let span_count = spans.len() as u64;

    let total = 32u64;
    let panics = 12u64;
    let capacity = 4usize;
    let plan = FaultPlan {
        seed: 33,
        shard_panic_rate: 1.0,
        shard_panic_budget: panics,
        ..FaultPlan::default()
    };
    let injector = Arc::new(SeededInjector::new(plan));
    let runtime = ServeRuntime::start_with_injector(
        Arc::clone(&pipeline),
        ServeConfig {
            num_shards: 2,
            idle_timeout_us: 1_000_000,
            resilience: ResilienceConfig {
                quarantine_capacity: capacity,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    )
    .expect("valid serve config");
    // All batches before any tick, so every budgeted panic lands on a
    // Batch message and strands exactly one single-trace batch.
    for i in 0..total {
        let report = runtime.submit_batch(rebadged(spans, 80_000 + i), 0);
        assert_eq!(report.rejected + report.shed, 0);
    }
    runtime.tick(2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    assert_eq!(injector.injected_shard_panics(), panics);
    assert_eq!(m.poison_traces, panics, "every panic quarantined exactly once");
    // The buffer wrapped: only the newest `capacity` entries survive.
    assert_eq!(report.quarantined.len(), capacity);
    assert_eq!(m.quarantine_dropped, panics - capacity as u64);
    // The span counter is monotonic and unaffected by buffer wrap.
    assert_eq!(m.spans_quarantined, panics * span_count);
    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined,
        "conservation must stay exact when the quarantine buffer wraps"
    );

    // Surviving entries still carry full provenance: the origin shard
    // matches both the panic reason and the trace's routing.
    for q in &report.quarantined {
        let origin = q.origin_shard.expect("shard panic entries carry origin_shard");
        assert!(
            matches!(q.reason, QuarantineReason::ShardPanic { shard } if shard == origin),
            "reason {:?} disagrees with origin_shard {origin}",
            q.reason
        );
        let id = q.trace_id.expect("single-trace batches have a trace id");
        assert_eq!(Some(origin), owner_of(id, 0..2), "origin_shard disagrees with routing");
        assert_eq!(q.span_count as u64, span_count);
    }

    // Every non-stranded trace still completed and was verdicted or
    // stored; nothing leaked besides the labelled quarantines.
    assert_eq!(m.traces_completed, total - panics);
}

/// `poll_quarantined` under an active storm: each poll returns at most
/// `quarantine_capacity` entries (the store is hard-bounded no matter
/// how fast panics arrive), drained entries never reappear, and
/// provenance survives the mid-storm drain — entries polled live plus
/// entries left at shutdown account for every non-dropped quarantine.
#[test]
fn poll_quarantined_respects_bound_and_preserves_origin_during_storm() {
    let pipeline = pipeline();
    let traces = chaos_traces(4);
    let spans = traces[0].spans();

    let total = 32u64;
    let panics = 12u64;
    let capacity = 4usize;
    let plan = FaultPlan {
        seed: 34,
        shard_panic_rate: 1.0,
        shard_panic_budget: panics,
        ..FaultPlan::default()
    };
    let injector = Arc::new(SeededInjector::new(plan));
    let runtime = ServeRuntime::start_with_injector(
        Arc::clone(&pipeline),
        ServeConfig {
            num_shards: 2,
            idle_timeout_us: 1_000_000,
            resilience: ResilienceConfig {
                quarantine_capacity: capacity,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    )
    .expect("valid serve config");

    let mut polled: Vec<_> = Vec::new();
    for i in 0..total {
        runtime.submit_batch(rebadged(spans, 90_000 + i), 0);
        let batch = runtime.poll_quarantined();
        assert!(
            batch.len() <= capacity,
            "poll returned {} entries from a store bounded at {capacity}",
            batch.len()
        );
        polled.extend(batch);
    }
    runtime.tick(2_000_000);
    let report = runtime.shutdown();
    let m = &report.metrics;

    assert!(report.quarantined.len() <= capacity);
    let seen: Vec<_> = polled.iter().chain(&report.quarantined).collect();
    // Drains are destructive: no entry is returned twice.
    let ids: BTreeSet<u64> = seen.iter().filter_map(|q| q.trace_id).collect();
    assert_eq!(ids.len(), seen.len(), "a quarantined entry was drained twice");
    // Live polling frees buffer space, so fewer (or zero) entries are
    // dropped than in the unpolled storm — but the books still close:
    // everything quarantined was either drained by someone or dropped.
    assert_eq!(seen.len() as u64 + m.quarantine_dropped, panics);
    assert_eq!(m.poison_traces, panics);
    for q in seen {
        let origin = q.origin_shard.expect("shard panic entries carry origin_shard");
        assert!(matches!(q.reason, QuarantineReason::ShardPanic { shard } if shard == origin));
        let id = q.trace_id.expect("single-trace batches have a trace id");
        assert_eq!(Some(origin), owner_of(id, 0..2), "origin_shard survives a mid-storm drain");
    }
    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined
    );
}
