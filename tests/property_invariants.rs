//! Cross-crate property-based tests: invariants that must hold for any
//! generated application, any simulated trace, and any format
//! round-trip.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use sleuth::chaos::{FaultPlan as RuntimeFaultPlan, SeededInjector};
use sleuth::cluster::{
    hdbscan, trace_distance, trace_distance_hashed, DistanceMatrix, HdbscanParams, TraceSetEncoder,
};
use sleuth::core::pipeline::{AnalyzeOptions, PipelineConfig, SleuthPipeline};
use sleuth::gnn::TrainConfig;
use sleuth::serve::{owner_of, FaultInjector, ResilienceConfig, ServeConfig, ServeRuntime};
use sleuth::synth::chaos::{ChaosEngine, FaultPlan};
use sleuth::synth::generator::{generate_app, GeneratorConfig};
use sleuth::synth::workload::CorpusBuilder;
use sleuth::synth::Simulator;
use sleuth::trace::{exclusive, formats, IStr, Interner, SpanKind, Symbol, Trace};

/// Simulate one trace of a generated app, under an arbitrary fault plan.
fn simulate(n_rpcs: usize, app_seed: u64, sim_seed: u64, faulty: bool) -> Trace {
    let app = generate_app(&GeneratorConfig::synthetic(n_rpcs), app_seed);
    let sim = Simulator::new(&app);
    let mut rng = ChaCha8Rng::seed_from_u64(sim_seed);
    let plan = if faulty {
        ChaosEngine::default().sample_nonempty_plan(&app, &mut rng)
    } else {
        FaultPlan::healthy()
    };
    sim.simulate(0, &plan, sim_seed, &mut rng).trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every simulated trace is a well-formed tree with sane physics:
    /// parents precede children, synchronous children nest inside their
    /// parents, exclusive durations never exceed full durations.
    #[test]
    fn prop_simulated_traces_are_physical(
        app_seed in 0u64..200,
        sim_seed in 0u64..1000,
        faulty in any::<bool>(),
    ) {
        let trace = simulate(16, app_seed, sim_seed, faulty);
        prop_assert!(!trace.is_empty());
        let ex = exclusive::exclusive_durations(&trace);
        for (i, span) in trace.iter() {
            prop_assert!(span.end_us >= span.start_us);
            prop_assert!(ex[i] <= span.duration_us());
            if let Some(p) = trace.parent(i) {
                prop_assert!(p < i, "topological order violated");
                let ps = trace.span(p);
                if span.kind != SpanKind::Consumer {
                    prop_assert!(span.start_us >= ps.start_us);
                    prop_assert!(span.end_us <= ps.end_us,
                        "sync span escapes parent: {} [{},{}] vs parent [{},{}]",
                        span.name, span.start_us, span.end_us, ps.start_us, ps.end_us);
                }
            }
        }
        // Exclusive errors imply errors.
        let ee = exclusive::exclusive_errors(&trace);
        for (i, _) in trace.iter() {
            if ee[i] {
                prop_assert!(trace.span(i).is_error());
            }
        }
    }

    /// All three interchange formats round-trip simulated spans exactly.
    #[test]
    fn prop_format_roundtrips(app_seed in 0u64..100, sim_seed in 0u64..500) {
        let trace = simulate(16, app_seed, sim_seed, true);
        let spans = trace.spans().to_vec();
        prop_assert_eq!(&formats::from_otel(&formats::to_otel(&spans)).unwrap(), &spans);
        prop_assert_eq!(&formats::from_zipkin(&formats::to_zipkin(&spans)).unwrap(), &spans);
        prop_assert_eq!(&formats::from_jaeger(&formats::to_jaeger(&spans)).unwrap(), &spans);
    }

    /// The trace distance is a bounded semi-metric on simulated traces,
    /// and identical traces are at distance zero.
    #[test]
    fn prop_trace_distance_semimetric(app_seed in 0u64..50, s1 in 0u64..200, s2 in 0u64..200) {
        let a = simulate(16, app_seed, s1, false);
        let b = simulate(16, app_seed, s2, true);
        let enc = TraceSetEncoder::new(3);
        let (sa, sb) = (enc.encode(&a), enc.encode(&b));
        let d_ab = sleuth::cluster::distance::trace_distance(&sa, &sb);
        let d_ba = sleuth::cluster::distance::trace_distance(&sb, &sa);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert_eq!(sleuth::cluster::distance::trace_distance(&sa, &sa), 0.0);
    }

    /// HDBSCAN labels are always valid: contiguous cluster ids from 0,
    /// noise as -1, every selected cluster at least min_cluster_size.
    #[test]
    fn prop_hdbscan_labels_valid(
        app_seed in 0u64..30,
        n in 8usize..24,
        mcs in 3usize..6,
    ) {
        let traces: Vec<Trace> = (0..n).map(|i| simulate(16, app_seed, i as u64, i % 3 == 0)).collect();
        let enc = TraceSetEncoder::new(3);
        let sets: Vec<_> = traces.iter().map(|t| enc.encode(t)).collect();
        let dm = DistanceMatrix::builder().build_from(&sets);
        let c = hdbscan(&dm, &HdbscanParams {
            min_cluster_size: mcs,
            min_samples: 2,
            cluster_selection_epsilon: 0.0,
            allow_single_cluster: true,
        });
        prop_assert_eq!(c.labels.len(), n);
        let k = c.n_clusters() as isize;
        for &l in &c.labels {
            prop_assert!(l == -1 || (0..k).contains(&l), "label {l} out of range");
        }
        for cl in 0..k {
            let size = c.members(cl).len();
            prop_assert!(size >= mcs, "cluster {cl} has only {size} members (mcs {mcs})");
        }
    }

    /// The GNN counterfactual with no intervention reproduces the
    /// observed trace for any simulated input, even with an untrained
    /// model (abduction invariant).
    #[test]
    fn prop_counterfactual_reproduces_observation(app_seed in 0u64..50, sim_seed in 0u64..200) {
        let trace = simulate(16, app_seed, sim_seed, true);
        let mut featurizer = sleuth::gnn::Featurizer::new(8);
        let enc = featurizer.encode(&trace);
        let model = sleuth::gnn::SleuthModel::new(&sleuth::gnn::ModelConfig::default(), app_seed);
        let pred = model.predict_counterfactual(&enc, &[]);
        for i in 0..enc.len() {
            prop_assert!((pred.d_scaled[i] - enc.d_scaled[i]).abs() < 1e-3,
                "span {i}: {} vs {}", pred.d_scaled[i], enc.d_scaled[i]);
            prop_assert!((pred.e_prob[i] - enc.e[i]).abs() < 1e-4);
        }
    }

    /// Shard ownership is a pure, stable function of `(trace_id, live
    /// set)`: the same trace id always lands on the same live shard,
    /// regardless of when or in what order batches arrive or the live
    /// set is listed — and a membership change moves only the keys it
    /// must.
    #[test]
    fn prop_shard_routing_deterministic(
        ids in proptest::collection::vec(0u64..=u64::MAX, 1..64),
        mask in 1u64..(1 << 12),
    ) {
        // A random non-empty subset of shards 0..12.
        let live: Vec<usize> = (0..12).filter(|s| (mask >> s) & 1 == 1).collect();
        let owner = |id: u64| owner_of(id, live.iter().copied());
        for &id in &ids {
            let s = owner(id).expect("live set is non-empty");
            prop_assert!(live.contains(&s), "owner {s} is not live");
            prop_assert_eq!(owner(id), Some(s), "routing not stable");
            prop_assert_eq!(owner_of(id, live.iter().rev().copied()), Some(s));
            prop_assert_eq!(owner_of(id, [live[0]]), Some(live[0]));
            prop_assert_eq!(owner_of(id, []), None);
            // Minimal movement: removing a non-owner never moves the
            // key; removing the owner moves it to another live shard.
            for &gone in &live {
                let moved = owner_of(id, live.iter().copied().filter(|&x| x != gone));
                if gone != s {
                    prop_assert_eq!(moved, Some(s), "non-owner {gone} left and the key moved");
                } else if let Some(m) = moved {
                    prop_assert!(m != s && live.contains(&m));
                } else {
                    prop_assert_eq!(live.len(), 1);
                }
            }
        }
        // Order-independence: routing a reversed stream is identical.
        let forward: Vec<Option<usize>> = ids.iter().map(|&i| owner(i)).collect();
        let mut backward: Vec<Option<usize>> = ids.iter().rev().map(|&i| owner(i)).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }
}

/// One quick-fitted pipeline shared by the serving properties below.
fn serve_pipeline() -> Arc<SleuthPipeline> {
    static PIPELINE: OnceLock<Arc<SleuthPipeline>> = OnceLock::new();
    Arc::clone(PIPELINE.get_or_init(|| {
        let app = sleuth::synth::presets::synthetic(12, 1);
        let train = CorpusBuilder::new(&app)
            .seed(5)
            .normal_traces(100)
            .plain_traces();
        let config = PipelineConfig {
            train: TrainConfig {
                epochs: 10,
                batch_traces: 32,
                lr: 1e-2,
                seed: 0,
            },
            ..PipelineConfig::default()
        };
        Arc::new(SleuthPipeline::fit(&train, &config))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shutting down immediately after ingest — no ticks, no idle
    /// windows elapsed — still drains every ingested trace exactly
    /// once: the flush path loses nothing.
    #[test]
    fn prop_drain_after_shutdown_loses_no_traces(
        app_seed in 0u64..40,
        sim_seeds in proptest::collection::vec(1u64..500, 2..6),
        num_shards in 1usize..6,
    ) {
        let seeds: BTreeSet<u64> = sim_seeds.into_iter().collect();
        let traces: Vec<Trace> = seeds
            .iter()
            .map(|&s| simulate(12, app_seed, s, s % 2 == 0))
            .collect();
        let pipeline = serve_pipeline();
        let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig {
            num_shards,
            ..ServeConfig::default()
        })
        .expect("valid serve config");
        for t in &traces {
            let report = runtime.submit_batch(t.spans().to_vec(), 0);
            prop_assert_eq!(report.rejected + report.shed, 0);
        }
        let report = runtime.shutdown();
        let m = &report.metrics;
        prop_assert_eq!(report.store.trace_count(), traces.len());
        prop_assert_eq!(m.traces_completed, traces.len() as u64);
        prop_assert_eq!(m.traces_malformed, 0);
        prop_assert_eq!(
            m.spans_submitted,
            m.spans_stored + m.spans_rejected + m.spans_shed + m.spans_evicted + m.spans_deduped
        );
        // Verdicts match the batch pipeline over the same traces.
        let anomalous: Vec<&Trace> = traces
            .iter()
            .filter(|t| pipeline.detector().is_anomalous(t))
            .collect();
        prop_assert_eq!(report.verdicts.len(), anomalous.len());
        let mut online: Vec<u64> = report.verdicts.iter().map(|v| v.trace_id).collect();
        online.sort_unstable();
        let mut expected: Vec<u64> = anomalous.iter().map(|t| t.trace_id()).collect();
        expected.sort_unstable();
        prop_assert_eq!(online, expected);
    }

    /// Verdict model versions are non-decreasing in emission order and
    /// every verdict is tagged, no matter when hot-swaps land relative
    /// to ingest. Publishing the same pipeline leaves verdict content
    /// untouched — only the version tag moves.
    #[test]
    fn prop_verdict_versions_monotonic_across_swaps(
        app_seed in 0u64..40,
        sim_seeds in proptest::collection::vec(1u64..500, 3..8),
        publish_before in 0usize..8,
    ) {
        let seeds: BTreeSet<u64> = sim_seeds.into_iter().collect();
        let traces: Vec<Trace> = seeds
            .iter()
            .map(|&s| simulate(12, app_seed, s, true))
            .collect();
        let pipeline = serve_pipeline();
        let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig {
            num_shards: 2,
            ..ServeConfig::default()
        })
        .expect("valid serve config");
        for (i, t) in traces.iter().enumerate() {
            if i == publish_before {
                let v = runtime.publish(Arc::clone(&pipeline));
                prop_assert_eq!(v, sleuth::serve::ModelVersion(2));
            }
            let report = runtime.submit_batch(t.spans().to_vec(), 0);
            prop_assert_eq!(report.rejected + report.shed, 0);
        }
        let report = runtime.shutdown();
        let m = &report.metrics;
        let current = if publish_before < traces.len() { 2 } else { 1 };
        for pair in report.verdicts.windows(2) {
            prop_assert!(pair[0].model_version <= pair[1].model_version);
        }
        for v in &report.verdicts {
            prop_assert!(v.model_version.0 >= 1 && v.model_version.0 <= current);
        }
        let tagged: u64 = m.verdicts_by_version.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(tagged, m.verdicts_emitted);
        prop_assert_eq!(m.verdicts_emitted, report.verdicts.len() as u64);
        // Same pipeline on both sides of the swap: content matches the
        // batch pipeline exactly.
        let anomalous: Vec<&Trace> = traces
            .iter()
            .filter(|t| pipeline.detector().is_anomalous(t))
            .collect();
        prop_assert_eq!(report.verdicts.len(), anomalous.len());
    }

    /// Fault transparency: under any seeded runtime fault plan whose
    /// faults eventually fall silent (budgeted panics and delays, all
    /// injected at attempt 0 so the supervised retry succeeds), the
    /// surviving traces receive exactly the verdicts of a fault-free
    /// run — nothing quarantined, nothing degraded, nothing lost.
    #[test]
    fn prop_faulted_run_matches_fault_free_verdicts(
        app_seed in 0u64..40,
        sim_seeds in proptest::collection::vec(1u64..500, 3..8),
        chaos_seed in 0u64..10_000,
        panic_budget in 1u64..12,
        kill_once in any::<bool>(),
        rca_workers in 1usize..3,
    ) {
        let seeds: BTreeSet<u64> = sim_seeds.into_iter().collect();
        let traces: Vec<Trace> = seeds
            .iter()
            .map(|&s| simulate(12, app_seed, s, true))
            .collect();
        let pipeline = serve_pipeline();

        // Ground truth from the fault-free batch pipeline.
        let anomalous: Vec<&Trace> = traces
            .iter()
            .filter(|t| pipeline.detector().is_anomalous(t))
            .collect();
        let mut expected: Vec<(u64, Vec<String>)> = anomalous
            .iter()
            .zip(pipeline.analyze(&anomalous, AnalyzeOptions::unclustered()))
            .map(|(t, r)| (t.trace_id(), r.services))
            .collect();
        expected.sort_unstable();

        let plan = RuntimeFaultPlan {
            seed: chaos_seed,
            kill_each_rca_worker_once: kill_once,
            rca_panic_rate: 0.5,
            rca_panic_budget: panic_budget,
            rca_delay_rate: 0.25,
            rca_delay_us: 50,
            rca_delay_budget: 8,
            shard_stall_rate: 0.25,
            shard_stall_us: 50,
            shard_stall_budget: 8,
            clock_skew_us: 100,
            ..RuntimeFaultPlan::default()
        };
        let injector = Arc::new(SeededInjector::new(plan));
        let runtime = ServeRuntime::start_with_injector(
            Arc::clone(&pipeline),
            ServeConfig {
                num_shards: 2,
                rca_workers,
                resilience: ResilienceConfig {
                    // Keep the breaker out of the picture: this property
                    // is about supervision + retry, not degradation.
                    breaker_threshold: 1 << 20,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            Arc::clone(&injector) as Arc<dyn FaultInjector>,
        )
        .expect("valid serve config");
        for t in &traces {
            let report = runtime.submit_batch(t.spans().to_vec(), 0);
            prop_assert_eq!(report.rejected + report.shed + report.invalid, 0);
        }
        let report = runtime.shutdown();
        let m = &report.metrics;

        prop_assert!(report.quarantined.is_empty(),
            "retried faults must not poison traces: {:?}",
            report.quarantined.iter().map(|q| (&q.reason, q.trace_id)).collect::<Vec<_>>());
        prop_assert_eq!(m.poison_traces, 0);
        let mut online: Vec<(u64, Vec<String>)> = report
            .verdicts
            .iter()
            .map(|v| (v.trace_id, v.services.clone()))
            .collect();
        online.sort_unstable();
        prop_assert_eq!(online, expected);
        prop_assert!(report.verdicts.iter().all(|v| !v.degraded));
        prop_assert_eq!(
            m.spans_submitted,
            m.spans_stored + m.spans_rejected + m.spans_shed + m.spans_evicted + m.spans_deduped
        );
    }
}

// ---------------------------------------------------------------------------
// Wire frame properties: the binary protocol must round-trip every
// frame type exactly, and decoding untrusted bytes must be total —
// structured errors, never panics, work bounded by the declared
// (capped) frame length.
// ---------------------------------------------------------------------------

use sleuth::serve::metrics::HISTOGRAM_BUCKETS;
use sleuth::serve::{HistogramSnapshot, MetricsSnapshot, ModelVersion, QuarantineReason, Verdict};
use sleuth::trace::{Span, StatusCode};
use sleuth::wire::{
    decode_frame_bytes, encode_frame, frame_checksum, Frame, Msg, ShardFinal, WireQuarantined,
    DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};

fn wire_string(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn wire_span(rng: &mut ChaCha8Rng) -> Span {
    let service = wire_string(rng, 12);
    let name = wire_string(rng, 12);
    Span {
        trace_id: rng.next_u64(),
        span_id: rng.next_u64(),
        parent_span_id: rng.gen_bool(0.5).then(|| rng.next_u64()),
        service: service.as_str().into(),
        name: name.as_str().into(),
        kind: SpanKind::ALL[rng.gen_range(0..SpanKind::ALL.len())],
        start_us: rng.next_u64(),
        end_us: rng.next_u64(),
        status: match rng.gen_range(0u8..3) {
            0 => StatusCode::Unset,
            1 => StatusCode::Ok,
            _ => StatusCode::Error,
        },
        pod: wire_string(rng, 8).as_str().into(),
        node: wire_string(rng, 8).as_str().into(),
    }
}

fn wire_verdict(rng: &mut ChaCha8Rng) -> Verdict {
    Verdict {
        trace_id: rng.next_u64(),
        services: (0..rng.gen_range(0usize..4))
            .map(|_| wire_string(rng, 10))
            .collect(),
        cluster: rng.gen_bool(0.5).then(|| rng.gen_range(-2isize..100)),
        rca_latency_us: rng.next_u64(),
        model_version: ModelVersion(rng.next_u64()),
        degraded: rng.gen_bool(0.5),
    }
}

fn wire_quarantined(rng: &mut ChaCha8Rng) -> WireQuarantined {
    WireQuarantined {
        trace_id: rng.gen_bool(0.7).then(|| rng.next_u64()),
        span_count: rng.next_u64(),
        reason: match rng.gen_range(0u8..3) {
            0 => QuarantineReason::Assembly(wire_string(rng, 24)),
            1 => QuarantineReason::RcaPanic {
                worker: rng.gen_range(0usize..64),
                attempts: rng.gen_range(0u32..10),
            },
            _ => QuarantineReason::ShardPanic {
                shard: rng.gen_range(0usize..64),
            },
        },
        origin_shard: rng.gen_bool(0.7).then(|| rng.next_u64()),
    }
}

fn wire_histogram(rng: &mut ChaCha8Rng) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for b in h.buckets.iter_mut() {
        *b = rng.gen_range(0u64..1_000);
    }
    h.count = h.buckets.iter().sum();
    h.sum = rng.next_u64() >> 16;
    let _ = HISTOGRAM_BUCKETS; // bucket count is fixed by the serve crate
    h
}

// Field-by-field construction is the point here: every counter gets
// an independent random value so a codec that drops or swaps fields
// cannot round-trip.
#[allow(clippy::field_reassign_with_default)]
fn wire_metrics(rng: &mut ChaCha8Rng) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.spans_submitted = rng.next_u64();
    m.spans_enqueued = rng.next_u64();
    m.spans_rejected = rng.next_u64();
    m.spans_shed = rng.next_u64();
    m.spans_evicted = rng.next_u64();
    m.spans_deduped = rng.next_u64();
    m.spans_stored = rng.next_u64();
    m.traces_completed = rng.next_u64();
    m.traces_malformed = rng.next_u64();
    m.traces_anomalous = rng.next_u64();
    m.verdicts_emitted = rng.next_u64();
    m.rca_latency_us = wire_histogram(rng);
    m.queue_depth = wire_histogram(rng);
    m.model_swaps = rng.next_u64();
    m.swap_drain_us = wire_histogram(rng);
    m.baseline_refreshes = rng.next_u64();
    m.refresh_traces_folded = rng.next_u64();
    m.refresh_traces_shed = rng.next_u64();
    m.refresh_staleness_traces = wire_histogram(rng);
    m.lock_poisoned = rng.next_u64();
    m.poison_traces = rng.next_u64();
    m.quarantine_dropped = rng.next_u64();
    m.spans_quarantined = rng.next_u64();
    m.verdicts_degraded = rng.next_u64();
    m.breaker_trips = rng.next_u64();
    m.verdicts_by_version = (0..rng.gen_range(0u64..4))
        .map(|v| (v, rng.next_u64()))
        .collect();
    m.rca_worker_latency_us = (0..rng.gen_range(0usize..3))
        .map(|w| (w, wire_histogram(rng)))
        .collect();
    m.worker_panics = (0..rng.gen_range(0usize..3))
        .map(|w| (wire_string(rng, 8), w, rng.next_u64()))
        .collect();
    m.worker_restarts = (0..rng.gen_range(0usize..3))
        .map(|w| (wire_string(rng, 8), w, rng.next_u64()))
        .collect();
    m.spans_rejected_by_reason = (0..rng.gen_range(0usize..3))
        .map(|_| (wire_string(rng, 12), rng.next_u64()))
        .collect();
    m.degraded_by_reason = (0..rng.gen_range(0usize..3))
        .map(|_| (wire_string(rng, 12), rng.next_u64()))
        .collect();
    m.quarantined_by_reason = (0..rng.gen_range(0usize..3))
        .map(|_| (wire_string(rng, 12), rng.next_u64()))
        .collect();
    m
}

/// Every `Msg` variant, selected by `which`, with seeded random content.
fn wire_msg(rng: &mut ChaCha8Rng, which: usize) -> Msg {
    match which % 12 {
        0 => Msg::SpanBatch {
            now_us: rng.next_u64(),
            spans: (0..rng.gen_range(0usize..6))
                .map(|_| wire_span(rng))
                .collect(),
        },
        1 => Msg::Tick {
            now_us: rng.next_u64(),
        },
        2 => Msg::Publish,
        3 => Msg::RefreshBaselines,
        4 => Msg::MetricsRequest,
        5 => Msg::QuarantineDrain,
        6 => Msg::Shutdown,
        7 => Msg::Verdict(wire_verdict(rng)),
        8 => Msg::Quarantined(wire_quarantined(rng)),
        9 => Msg::MetricsReply(Box::new(wire_metrics(rng))),
        10 => Msg::PublishReply {
            version: rng.next_u64(),
        },
        _ => Msg::ShutdownReply(Box::new(ShardFinal {
            metrics: wire_metrics(rng),
            trace_count: rng.next_u64(),
            span_count: rng.next_u64(),
        })),
    }
}

/// Every `Frame` variant: 0–4 are the control frames, 5.. wraps each
/// `Msg` variant in a `Data` frame.
fn wire_frame(rng: &mut ChaCha8Rng, which: usize) -> Frame {
    match which % 20 {
        0 => Frame::Hello {
            min_version: rng.gen_range(0u16..4),
            max_version: rng.gen_range(0u16..4),
            session_id: rng.next_u64(),
            resume: rng.gen_bool(0.5),
        },
        1 => Frame::HelloAck {
            version: rng.gen_range(0u16..4),
            resumed: rng.gen_bool(0.5),
        },
        2 => Frame::Ack {
            upto: rng.next_u64(),
        },
        3 => Frame::Nack {
            expected: rng.next_u64(),
        },
        4 => Frame::Error {
            code: wire_string(rng, 16),
            detail: wire_string(rng, 40),
        },
        5 => Frame::Heartbeat {
            nonce: rng.next_u64(),
        },
        6 => Frame::HeartbeatAck {
            nonce: rng.next_u64(),
        },
        7 => Frame::Goodbye {
            reason: wire_string(rng, 24),
        },
        n => Frame::Data {
            seq: rng.next_u64(),
            msg: wire_msg(rng, n - 8),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// decode(encode(frame)) == frame for every frame and message type.
    #[test]
    fn prop_wire_frames_roundtrip(seed in any::<u64>(), which in 0usize..20) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frame = wire_frame(&mut rng, which);
        let bytes = encode_frame(&frame, PROTOCOL_VERSION);
        let decoded = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN);
        prop_assert_eq!(decoded.as_ref(), Ok(&frame), "{:?}", frame);
    }

    /// Arbitrary bytes never panic the decoder (and, lacking the magic
    /// preamble by overwhelming odds, never decode).
    #[test]
    fn prop_wire_arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let _ = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN);
        // A tight cap must also hold (bounds the work an attacker can
        // force with a huge declared length).
        let _ = decode_frame_bytes(&bytes, 64);
    }

    /// Adversarial payloads under a *valid* header and *correct*
    /// checksum (the worst case that reaches the body decoder) never
    /// panic, for every known tag and a few unknown ones.
    #[test]
    fn prop_wire_adversarial_payloads_never_panic(
        tag_idx in 0usize..23,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let tags: [u8; 23] = [
            1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 0, 0x60, 0xff,
        ];
        let tag = tags[tag_idx];
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.push(tag);
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_checksum(tag, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN);
    }

    /// Every strict prefix of a valid frame is rejected as truncated —
    /// never a panic, never a bogus decode.
    #[test]
    fn prop_wire_truncated_prefixes_rejected(seed in any::<u64>(), which in 0usize..20) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frame = wire_frame(&mut rng, which);
        let bytes = encode_frame(&frame, PROTOCOL_VERSION);
        for cut in 0..bytes.len() {
            match decode_frame_bytes(&bytes[..cut], DEFAULT_MAX_FRAME_LEN) {
                Err(sleuth::wire::WireError::Truncated { .. }) => {}
                other => prop_assert!(false, "cut at {}: {:?}", cut, other),
            }
        }
    }

    /// Any single-byte corruption of a valid frame is *detected*: the
    /// magic, version, flags, and length fields are each validated,
    /// and the checksum covers the frame type and payload — so no
    /// flip yields a silently different frame.
    #[test]
    fn prop_wire_byte_flips_detected(
        seed in any::<u64>(),
        which in 0usize..20,
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frame = wire_frame(&mut rng, which);
        let mut bytes = encode_frame(&frame, PROTOCOL_VERSION);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(
            decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN).is_err(),
            "flip {:#04x} at {} of {:?} went undetected",
            flip, pos, frame
        );
    }
}

// ---------------------------------------------------------------------
// Hot-path kernels: string interning and the sorted-merge distance.
// tier1.sh runs exactly these via
// `cargo test --test property_invariants hotpath_`.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interning round-trips: the symbol resolves back to the exact
    /// string, re-interning is idempotent, and lookup/get/from_id all
    /// agree with the original handle.
    #[test]
    fn hotpath_intern_resolve_roundtrip(s in "\\PC{0,40}") {
        let sym = Symbol::intern(&s);
        prop_assert_eq!(sym.as_str(), s.as_str());
        prop_assert_eq!(Symbol::intern(&s), sym);
        prop_assert_eq!(Symbol::lookup(&s), Some(sym));
        prop_assert_eq!(Symbol::from_id(sym.id()).as_str(), s.as_str());
        let interner = Interner::global();
        prop_assert_eq!(interner.get(&s), Some(sym));
        prop_assert_eq!(interner.resolve(sym), s.as_str());
        // The pooled handle (first call may miss the thread's L1, the
        // second hits it) is the global table's answer: same symbol,
        // same leaked text.
        for _ in 0..2 {
            let pooled = IStr::intern(&s);
            prop_assert_eq!(pooled.sym(), sym);
            prop_assert!(std::ptr::eq(pooled.as_str(), interner.resolve(sym)));
        }
        prop_assert_eq!(IStr::default(), IStr::intern(""));
        prop_assert!(std::ptr::eq(IStr::default().as_str(), IStr::intern("").as_str()));
    }

    /// The interned sorted-merge weighted Jaccard is *bit-identical*
    /// to the legacy hashed `BTreeMap` merge on simulated traces.
    /// Encoder weights are integer-valued f64 (span microseconds), so
    /// every per-pair sum is an exact integer well below 2^53 and the
    /// result cannot depend on merge order — any bit divergence is a
    /// real kernel bug, not floating-point noise.
    #[test]
    fn hotpath_distance_bitwise_matches_hashed(
        app_seed in 0u64..60,
        s1 in 0u64..300,
        s2 in 0u64..300,
        faulty in any::<bool>(),
    ) {
        let a = simulate(16, app_seed, s1, false);
        let b = simulate(16, app_seed, s2, faulty);
        let enc = TraceSetEncoder::new(3);
        let d_new = trace_distance(&enc.encode(&a), &enc.encode(&b));
        let d_old = trace_distance_hashed(&enc.encode_hashed(&a), &enc.encode_hashed(&b));
        prop_assert_eq!(d_new.to_bits(), d_old.to_bits(), "new={} old={}", d_new, d_old);
        let self_new = trace_distance(&enc.encode(&a), &enc.encode(&a));
        let self_old = trace_distance_hashed(&enc.encode_hashed(&a), &enc.encode_hashed(&a));
        prop_assert_eq!(self_new.to_bits(), self_old.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Differential OTLP parsing: the zero-copy scanner vs a naive
// serde_json::Value reference parser.
// ---------------------------------------------------------------------------

/// An adversarial-but-parseable string: ASCII, quotes, backslashes,
/// control characters, BMP unicode, and astral codepoints (which the
/// escaped emitter renders as surrogate pairs).
fn otlp_string(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '3', ' ', '_', '"', '\\', '/', '\n', '\t', '\u{8}', '\u{c}', '\r', '\u{1}',
        'é', 'ß', '→', '漢', '\u{7ff}', '\u{ffff}', '😀', '𝕊', '\u{10ffff}',
    ];
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
}

/// Emit `s` as a JSON string literal. `escape_all` renders every char
/// as `\uXXXX` (surrogate pairs for astral); otherwise only what JSON
/// requires is escaped and the rest rides raw UTF-8.
fn emit_json_string(s: &str, escape_all: bool, out: &mut String) {
    emit_json_string_with(s, |_| escape_all, out);
}

/// [`emit_json_string`] with the `\uXXXX`-or-raw choice made per char.
fn emit_json_string_with(s: &str, mut escape: impl FnMut(char) -> bool, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if escape(c) {
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{u:04x}"));
            }
        } else {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// A hex id of 4, 8, 16 or 32 digits (mixed case); ids longer than 16
/// digits must truncate to their low 64 bits on both parsers.
fn otlp_hex_id(rng: &mut ChaCha8Rng) -> String {
    let full = format!("{:032x}", (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()));
    let digits = [4, 8, 16, 32][rng.gen_range(0..4)];
    let mut s = full[32 - digits..].to_string();
    if rng.gen_bool(0.3) {
        s = s.to_uppercase();
    }
    s
}

/// A value for an unknown field the scanner must skip: scalars,
/// strings with escapes, and nested arrays/objects.
fn otlp_junk_value(rng: &mut ChaCha8Rng, depth: usize, out: &mut String) {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => out.push_str("null"),
        1 => out.push_str(if rng.gen_bool(0.5) { "true" } else { "false" }),
        2 => out.push_str(&format!("{}", rng.next_u64())),
        3 => emit_json_string(&otlp_string(rng, 8), rng.gen_bool(0.5), out),
        4 => {
            out.push('[');
            for i in 0..rng.gen_range(0..3) {
                if i > 0 {
                    out.push(',');
                }
                otlp_junk_value(rng, depth - 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.gen_range(0..3) {
                if i > 0 {
                    out.push(',');
                }
                emit_json_string(&format!("extra{i}"), false, out);
                out.push(':');
                otlp_junk_value(rng, depth - 1, out);
            }
            out.push('}');
        }
    }
}

const OTLP_KINDS: &[&str] = &[
    "SPAN_KIND_CLIENT",
    "SPAN_KIND_SERVER",
    "SPAN_KIND_PRODUCER",
    "SPAN_KIND_CONSUMER",
    "SPAN_KIND_INTERNAL",
    "SPAN_KIND_UNSPECIFIED",
    "garbage",
];
const OTLP_STATUSES: &[&str] =
    &["STATUS_CODE_UNSET", "STATUS_CODE_OK", "STATUS_CODE_ERROR", "bogus"];

/// One adversarial OTLP-JSON span record: valid ids and times, but
/// hostile strings, quoted-or-bare u64s, shuffled key order, unknown
/// fields, and randomized escaping — of values and, in about a third
/// of the records, of a random subset of each key's characters.
fn otlp_record(rng: &mut ChaCha8Rng) -> String {
    let esc = rng.gen_bool(0.4);
    // Keys draw from a forked stream: `field` keeps its generator for
    // the whole function while the values below borrow `rng`.
    let mut key_rng = ChaCha8Rng::seed_from_u64(rng.next_u64());
    let esc_keys = key_rng.gen_bool(0.35);
    let mut fields: Vec<String> = Vec::new();
    let mut field = |key: &str, value: String| {
        let mut f = String::new();
        emit_json_string_with(key, |_| esc_keys && key_rng.gen_bool(0.3), &mut f);
        f.push(':');
        f.push_str(&value);
        fields.push(f);
    };
    let quoted_str = |rng: &mut ChaCha8Rng, s: &str| {
        let mut v = String::new();
        emit_json_string(s, esc && rng.gen_bool(0.7), &mut v);
        v
    };
    let emit_u64 = |rng: &mut ChaCha8Rng, v: u64| {
        if rng.gen_bool(0.5) {
            format!("\"{v}\"")
        } else {
            format!("{v}")
        }
    };

    let tid = otlp_hex_id(rng);
    field("traceId", quoted_str(rng, &tid));
    let sid = otlp_hex_id(rng);
    field("spanId", quoted_str(rng, &sid));
    match rng.gen_range(0..4) {
        0 => {} // absent
        1 => field("parentSpanId", "null".into()),
        2 => field("parentSpanId", "\"\"".into()),
        _ => {
            let p = otlp_hex_id(rng);
            field("parentSpanId", quoted_str(rng, &p));
        }
    }
    let name = otlp_string(rng, 12);
    field("name", quoted_str(rng, &name));
    let service = otlp_string(rng, 12);
    field("serviceName", quoted_str(rng, &service));
    let kind = OTLP_KINDS[rng.gen_range(0..OTLP_KINDS.len())];
    field("kind", quoted_str(rng, kind));
    let start = rng.next_u64() >> rng.gen_range(0..32);
    let end = start.saturating_add(rng.next_u64() >> rng.gen_range(16..48));
    field("startTimeUnixNano", emit_u64(rng, start));
    field("endTimeUnixNano", emit_u64(rng, end));
    if rng.gen_bool(0.7) {
        match rng.gen_range(0..3) {
            0 => field("statusCode", "null".into()),
            _ => {
                let s = OTLP_STATUSES[rng.gen_range(0..OTLP_STATUSES.len())];
                field("statusCode", quoted_str(rng, s));
            }
        }
    }
    for (key, slot) in [("podName", 0), ("nodeName", 1)] {
        match rng.gen_range(0..3) {
            0 => {}
            1 => field(key, "null".into()),
            _ => {
                let s = otlp_string(rng, 6 + slot);
                field(key, quoted_str(rng, &s));
            }
        }
    }
    for i in 0..rng.gen_range(0..3) {
        let mut v = String::new();
        otlp_junk_value(rng, 2, &mut v);
        field(&format!("unknownField{i}"), v);
    }

    // Shuffle field order: both parsers must be order-independent.
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.gen_range(0..=i));
    }
    let ws = |rng: &mut ChaCha8Rng| " \n\t"[..rng.gen_range(0..3)].to_string();
    let mut out = String::from("{");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ws(rng));
        out.push_str(f);
        out.push_str(&ws(rng));
    }
    out.push('}');
    out
}

/// The naive reference: parse the whole document with serde_json,
/// then walk the `Value` tree replicating the documented semantics
/// (low-64-bit id truncation, kind/status fallbacks, ns→µs division,
/// empty/null parent → root, unknown fields ignored).
fn otlp_reference_parse(json: &str) -> Vec<Span> {
    fn ref_hex(s: &str) -> u64 {
        assert!(s.len() % 2 == 0, "reference: odd-length id {s:?}");
        let tail = if s.len() > 16 { &s[s.len() - 16..] } else { s };
        u64::from_str_radix(tail, 16).expect("reference: bad hex id")
    }
    fn ref_u64(v: &serde_json::Value) -> u64 {
        match v {
            serde_json::Value::Number(n) => n.as_u64().expect("reference: negative time"),
            serde_json::Value::String(s) => s.parse().expect("reference: bad quoted u64"),
            other => panic!("reference: time is {}", other.kind()),
        }
    }
    let doc: serde_json::Value = serde_json::from_str(json).expect("reference: malformed JSON");
    doc.as_array()
        .expect("reference: top level is not an array")
        .iter()
        .map(|rec| {
            let obj = rec.as_object().expect("reference: record is not an object");
            let str_of = |k: &str| obj.get(k).and_then(|v| v.as_str());
            let trace_id = ref_hex(str_of("traceId").expect("traceId"));
            let span_id = ref_hex(str_of("spanId").expect("spanId"));
            let parent = str_of("parentSpanId").filter(|p| !p.is_empty()).map(ref_hex);
            let kind = match str_of("kind").expect("kind") {
                "SPAN_KIND_CLIENT" => SpanKind::Client,
                "SPAN_KIND_PRODUCER" => SpanKind::Producer,
                "SPAN_KIND_CONSUMER" => SpanKind::Consumer,
                "SPAN_KIND_INTERNAL" => SpanKind::Internal,
                _ => SpanKind::Server,
            };
            let status = match str_of("statusCode") {
                Some("STATUS_CODE_ERROR") => StatusCode::Error,
                Some("STATUS_CODE_OK") => StatusCode::Ok,
                _ => StatusCode::Unset,
            };
            let start = ref_u64(obj.get("startTimeUnixNano").expect("startTimeUnixNano"));
            let end = ref_u64(obj.get("endTimeUnixNano").expect("endTimeUnixNano"));
            let mut b = Span::builder(
                trace_id,
                span_id,
                str_of("serviceName").expect("serviceName"),
                str_of("name").expect("name"),
            )
            .kind(kind)
            .time(start / 1_000, end / 1_000)
            .status(status)
            .placement(
                str_of("podName").unwrap_or_default(),
                str_of("nodeName").unwrap_or_default(),
            );
            if let Some(p) = parent {
                b = b.parent(p);
            }
            b.build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential test for the zero-copy OTLP scanner: arbitrary
    /// span batches rendered as adversarial OTLP JSON — hostile
    /// strings, `\u` escapes with surrogate pairs, quoted vs bare
    /// u64s, 128-bit ids, shuffled keys, unknown (nested) fields —
    /// must parse to exactly the spans a naive serde_json-based
    /// reference parser produces, field for field.
    #[test]
    fn otlp_scanner_matches_reference_parser(seed in any::<u64>(), n in 0usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut json = String::from("[");
        for i in 0..n {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&otlp_record(&mut rng));
        }
        json.push(']');

        let scanned = formats::from_otel_json(&json)
            .unwrap_or_else(|e| panic!("scanner rejected valid batch: {e} in {json}"));
        let reference = otlp_reference_parse(&json);
        prop_assert_eq!(scanned.len(), n);
        prop_assert_eq!(&scanned, &reference, "scanner and reference disagree on {}", json);
    }
}

/// Interning the same strings concurrently from the data-parallel pool
/// yields one stable handle per string: every worker gets the global
/// table's symbol and text for the same input, no matter which worker
/// won the insertion race or what its thread-local L1 held before.
///
/// The vocabulary is 64 x 64 equal-length names — several times the
/// L1's slots (`L1_SLOTS` in `sleuth_trace::intern`), so slots are
/// shared and evicted constantly — and names in one row or column are
/// one byte apart, the nearest miss a slot's text check can face.
#[test]
fn hotpath_concurrent_interning_is_stable() {
    use sleuth::par::ThreadPool;
    const ALPHABET: &[u8; 64] =
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    let words: Vec<String> = ALPHABET
        .iter()
        .flat_map(|&a| {
            ALPHABET
                .iter()
                .map(move |&b| format!("hotpath-{}-conc-{}", a as char, b as char))
        })
        .collect();
    // Each task walks the full list from a different rotation, odd
    // tasks backwards, so first-insertion races happen and the tasks a
    // thread runs back to back evict each other's slots.
    let order = |r: usize, i: usize| {
        let at = (i + r * 131) % words.len();
        if r % 2 == 0 {
            at
        } else {
            words.len() - 1 - at
        }
    };
    let rotations: Vec<usize> = (0..32).collect();
    let global = Interner::global();
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let per_task: Vec<Vec<IStr>> = pool.par_map(&rotations, |&r| {
            (0..words.len())
                .map(|i| IStr::intern(&words[order(r, i)]))
                .collect()
        });
        for (&r, handles) in rotations.iter().zip(&per_task) {
            for (i, handle) in handles.iter().enumerate() {
                let word = &words[order(r, i)];
                assert_eq!(handle.as_str(), word, "handle carries a different string");
                let sym = global.intern(word);
                assert_eq!(handle.sym(), sym, "same text, different symbol");
                assert!(
                    std::ptr::eq(handle.as_str(), global.resolve(sym)),
                    "text of {word:?} is not the pooled allocation"
                );
            }
        }
    }
}
