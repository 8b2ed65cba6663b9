//! Per-layer measurements: each crate's public functions timed from
//! outside, single-threaded, on the run's own corpus.
//!
//! Every function below is wrapped in a tracer span, so the same
//! numbers appear in `trace.json` and in the self-time table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sleuth_cluster::{hdbscan, DistanceMatrix};
use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_core::prune::SubtreeScan;
use sleuth_embed::{EmbeddingInterner, SemanticEmbedder};
use sleuth_gnn::{CfSession, Featurizer, ModelConfig};
use sleuth_par::ThreadPool;
use sleuth_store::{Collector, TraceStore};
use sleuth_tensor::nn::{Activation, Mlp, Params};
use sleuth_tensor::Tensor;
use sleuth_trace::formats::from_otel_json;
use sleuth_trace::{Assembler, Span, Trace};
use sleuth_wire::{
    decode_frame_bytes, encode_frame, Frame, Msg, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

use crate::stats;
use crate::tracer::Tracer;
use crate::workload::{Corpus, Spec};

/// Each layer function is repeated over the corpus until this much time
/// has been measured, so short functions get thousands of samples.
const MIN_MEASURE: Duration = Duration::from_millis(250);

/// Costs of the ingest-path layers, per span unless stated.
#[derive(Default, Debug, Clone, Copy)]
pub struct IngestLayers {
    pub scan_ns: f64,
    pub assemble_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_span: f64,
    pub collect_ns: f64,
    pub store_extend_ns: f64,
}

/// Costs of the detection/localisation layers.
#[derive(Default, Debug, Clone, Copy)]
pub struct RcaLayers {
    pub detect_ns_per_trace: f64,
    pub prune_us_per_trace: f64,
    pub pruned_span_fraction: f64,
    pub localise_us_p50: f64,
    pub localise_us_mean: f64,
    pub candidates_per_trace: f64,
    pub predict_calls_per_localisation: f64,
    pub nodes_recomputed_per_call: f64,
    pub encode_us_per_trace: f64,
    pub mlp_forward_ns_per_node: f64,
    pub featurize_ns_per_span: f64,
    /// Traces the detector flags (what the localiser is run on).
    pub detected: usize,
}

/// Costs of the clustering layer on a batch.
#[derive(Default, Debug, Clone, Copy)]
pub struct ClusterLayers {
    pub encode_us_per_trace: f64,
    pub distance_ns_per_pair: f64,
    pub hdbscan_us: f64,
    pub localisations_per_anomalous_trace: f64,
}

/// Repeat `pass` (which returns the ns it measured) until
/// [`MIN_MEASURE`] has accumulated; returns total ns and pass count.
/// Only the first pass records spans: one pass over the corpus is what
/// `trace.json` needs, the rest only tighten the mean.
fn repeat(tracer: &mut Tracer, mut pass: impl FnMut(&mut Tracer) -> u64) -> (f64, u32) {
    let was_enabled = tracer.enabled();
    let (mut total, mut passes) = (0u64, 0u32);
    while total < MIN_MEASURE.as_nanos() as u64 {
        total += pass(tracer);
        passes += 1;
        tracer.set_enabled(false);
    }
    tracer.set_enabled(was_enabled);
    (total as f64, passes)
}

fn timed<R>(tracer: &mut Tracer, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = tracer.span(name, id, f);
    (out, t.elapsed().as_nanos() as u64)
}

pub fn ingest(spec: &Spec, corpus: &Corpus, tracer: &mut Tracer) -> IngestLayers {
    let items = &corpus.items;
    let spans_per_pass: f64 = items.iter().map(|i| i.spans() as f64).sum();
    let parsed: Vec<Vec<Span>> = items
        .iter()
        .map(|i| from_otel_json(std::str::from_utf8(&i.json).expect("UTF-8")).expect("parses"))
        .collect();
    let mut out = IngestLayers::default();

    let (ns, passes) = repeat(tracer, |tracer| {
        items
            .iter()
            .enumerate()
            .map(|(k, item)| {
                timed(tracer, "trace.scan", k as u64 + 1, || {
                    let text = std::str::from_utf8(black_box(&item.json)).expect("UTF-8");
                    black_box(from_otel_json(text).expect("parses"));
                })
                .1
            })
            .sum()
    });
    out.scan_ns = ns / (spans_per_pass * passes as f64);

    let mut assembler = Assembler::new();
    let (ns, passes) = repeat(tracer, |tracer| {
        parsed
            .iter()
            .enumerate()
            .map(|(k, spans)| {
                let spans = spans.clone();
                timed(tracer, "trace.assemble", k as u64 + 1, || {
                    black_box(assembler.assemble(black_box(spans)).expect("assembles"));
                })
                .1
            })
            .sum()
    });
    out.assemble_ns = ns / (spans_per_pass * passes as f64);

    let frames: Vec<Frame> = parsed
        .iter()
        .enumerate()
        .map(|(k, spans)| Frame::Data {
            seq: k as u64 + 1,
            msg: Msg::SpanBatch {
                now_us: 1_000 * (k as u64 + 1),
                spans: spans.clone(),
            },
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let (ns, passes) = repeat(tracer, |tracer| {
        encoded.clear();
        frames
            .iter()
            .enumerate()
            .map(|(k, frame)| {
                let (bytes, ns) = timed(tracer, "wire.encode_frame", k as u64 + 1, || {
                    encode_frame(black_box(frame), PROTOCOL_VERSION)
                });
                encoded.push(bytes);
                ns
            })
            .sum()
    });
    out.encode_ns = ns / (spans_per_pass * passes as f64);
    out.bytes_per_span = encoded.iter().map(|b| b.len() as f64).sum::<f64>() / spans_per_pass;

    let (ns, passes) = repeat(tracer, |tracer| {
        encoded
            .iter()
            .enumerate()
            .map(|(k, bytes)| {
                timed(tracer, "wire.decode_frame", k as u64 + 1, || {
                    black_box(
                        decode_frame_bytes(black_box(bytes), DEFAULT_MAX_FRAME_LEN)
                            .expect("decodes"),
                    );
                })
                .1
            })
            .sum()
    });
    out.decode_ns = ns / (spans_per_pass * passes as f64);

    // The collector sees what the shard worker sees: one batch per
    // trace on the harness's logical clock, fresh trace ids each pass.
    let mut next_id = 1u64;
    let mut clock = 0u64;
    let mut collector = Collector::new(spec.idle_us);
    let mut store = TraceStore::new();
    let mut extend_ns = 0u64;
    let (ns, passes) = repeat(tracer, |tracer| {
        parsed
            .iter()
            .map(|spans| {
                let mut spans = spans.clone();
                for s in &mut spans {
                    s.trace_id = next_id;
                }
                clock += 1_000;
                let (done, ns) = timed(tracer, "store.collect", next_id, || {
                    collector.ingest_batch(black_box(spans), clock);
                    collector.poll_complete(clock)
                });
                for batch in done {
                    extend_ns += timed(tracer, "store.extend", next_id, || {
                        store.extend(black_box(batch.clone()))
                    })
                    .1;
                }
                next_id += 1;
                ns
            })
            .sum()
    });
    out.collect_ns = ns / (spans_per_pass * passes as f64);
    out.store_extend_ns = extend_ns as f64 / store.span_count().max(1) as f64;
    out
}

pub fn rca(pipeline: &SleuthPipeline, corpus: &Corpus, tracer: &mut Tracer) -> RcaLayers {
    let traces: Vec<&Trace> = corpus.items.iter().map(|i| &i.trace).collect();
    let mut out = RcaLayers::default();

    let detector = pipeline.detector();
    let (ns, passes) = repeat(tracer, |tracer| {
        // Tens of ns per call: timed per pass, not per call.
        timed(tracer, "core.detect", 0, || {
            for t in &traces {
                black_box(detector.is_anomalous(black_box(t)));
            }
        })
        .1
    });
    out.detect_ns_per_trace = ns / (traces.len() as f64 * passes as f64);

    let detected: Vec<(usize, &Trace)> = traces
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, t)| detector.is_anomalous(t))
        .collect();
    out.detected = detected.len();
    if detected.is_empty() {
        return out;
    }
    let n = detected.len() as f64;
    let rca = pipeline.rca();

    let mut pruned = 0.0;
    let (ns, passes) = repeat(tracer, |tracer| {
        pruned = 0.0;
        detected
            .iter()
            .map(|&(k, t)| {
                let (scan, ns) = timed(tracer, "core.prune", k as u64 + 1, || {
                    SubtreeScan::scan(black_box(t), rca.profile())
                });
                pruned += scan.pruned_span_fraction(t);
                ns
            })
            .sum()
    });
    out.prune_us_per_trace = ns / (n * passes as f64) / 1e3;
    out.pruned_span_fraction = pruned / n;

    let mut samples_us: Vec<f64> = Vec::new();
    let (mut calls, mut candidates) = (0u64, 0usize);
    let (ns, passes) = repeat(tracer, |tracer| {
        calls = 0;
        candidates = 0;
        detected
            .iter()
            .map(|&(k, t)| {
                let (report, ns) = timed(tracer, "core.localise", k as u64 + 1, || {
                    rca.localize_report(black_box(t))
                });
                calls += report.predict_calls;
                candidates += report.candidates;
                samples_us.push(ns as f64 / 1e3);
                ns
            })
            .sum()
    });
    out.localise_us_mean = ns / (n * passes as f64) / 1e3;
    out.localise_us_p50 = stats::median(&mut samples_us).unwrap_or(0.0);
    out.candidates_per_trace = candidates as f64 / n;
    out.predict_calls_per_localisation = calls as f64 / n;

    // What the localiser does inside, on the same traces: encode once,
    // then one counterfactual that restores every restorable span.
    let sem_dim = rca.model().config().sem_dim;
    let mut featurizer = Featurizer::new(sem_dim);
    for &(_, t) in &detected {
        featurizer.encode(t); // fill the vocabulary, as a serving model's is
    }
    let mut encoded = Vec::new();
    let (ns, passes) = repeat(tracer, |tracer| {
        encoded.clear();
        detected
            .iter()
            .map(|&(k, t)| {
                let (enc, ns) = timed(tracer, "gnn.encode", k as u64 + 1, || {
                    featurizer.encode(black_box(t))
                });
                encoded.push(enc);
                ns
            })
            .sum()
    });
    out.encode_us_per_trace = ns / (n * passes as f64) / 1e3;
    let (mut predict_calls, mut recomputed) = (0u64, 0u64);
    for (&(k, t), enc) in detected.iter().zip(&encoded) {
        let scan = SubtreeScan::scan(t, rca.profile());
        let overrides: Vec<(usize, f32, f32)> = (0..t.len())
            .filter_map(|i| scan.restore_target(i).map(|(d, e)| (i, d, e)))
            .collect();
        if overrides.is_empty() {
            continue;
        }
        let mut session = CfSession::new(rca.model(), enc);
        tracer.span("gnn.predict", k as u64 + 1, || {
            black_box(session.predict_root(&overrides))
        });
        predict_calls += session.predict_calls();
        recomputed += session.nodes_recomputed();
    }
    out.nodes_recomputed_per_call = recomputed as f64 / predict_calls.max(1) as f64;

    out.mlp_forward_ns_per_node = mlp_forward(rca.model().config(), traces[0].len().max(1), tracer);

    let mut interner = EmbeddingInterner::new(SemanticEmbedder::new(sem_dim));
    let spans: f64 = detected.iter().map(|(_, t)| t.len() as f64).sum();
    let (ns, passes) = repeat(tracer, |tracer| {
        detected
            .iter()
            .map(|&(k, t)| {
                timed(tracer, "embed.featurize", k as u64 + 1, || {
                    for (_, s) in t.iter() {
                        let id = interner.intern(&format!("{} {}", s.service, s.name));
                        black_box(interner.vector(id));
                    }
                })
                .1
            })
            .sum()
    });
    out.featurize_ns_per_span = ns / (spans * passes as f64);
    out
}

/// The model's per-node MLP on its real shapes (`2 + 2 + sem_dim →
/// hidden → 4`, ReLU) over a trace-sized batch of nodes.
fn mlp_forward(config: &ModelConfig, nodes: usize, tracer: &mut Tracer) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut params = Params::new();
    let in_dim = 4 + config.sem_dim;
    let mlp = Mlp::new(
        &mut params,
        &[in_dim, config.hidden, 4],
        Activation::Relu,
        &mut rng,
    );
    let x = Tensor::uniform(&[nodes, in_dim], 1.0, &mut rng);
    let (ns, passes) = repeat(tracer, |tracer| {
        timed(tracer, "tensor.mlp_forward", 0, || {
            black_box(mlp.infer(&params, black_box(&x)))
        })
        .1
    });
    ns / (nodes as f64 * passes as f64)
}

pub fn cluster(pipeline: &SleuthPipeline, traces: &[&Trace], tracer: &mut Tracer) -> ClusterLayers {
    let n = traces.len();
    let mut out = ClusterLayers::default();
    let encoder = pipeline.encoder();
    let mut sets = Vec::new();
    let (ns, passes) = repeat(tracer, |tracer| {
        sets.clear();
        traces
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let (set, ns) = timed(tracer, "cluster.encode", k as u64 + 1, || {
                    encoder.encode(black_box(t))
                });
                sets.push(set);
                ns
            })
            .sum()
    });
    out.encode_us_per_trace = ns / (n as f64 * passes as f64) / 1e3;

    let pool = ThreadPool::global();
    let mut dm = None;
    let (ns, passes) = repeat(tracer, |tracer| {
        let (m, ns) = timed(tracer, "cluster.distance", 0, || {
            DistanceMatrix::builder()
                .pool(pool)
                .build_from(black_box(&sets))
        });
        dm = Some(m);
        ns
    });
    let pairs = (n * n.saturating_sub(1) / 2).max(1) as f64;
    out.distance_ns_per_pair = ns / (pairs * passes as f64);
    let dm = dm.expect("at least one pass ran");

    let params = PipelineConfig::default().hdbscan;
    let mut clustering = None;
    let (ns, passes) = repeat(tracer, |tracer| {
        let (c, ns) = timed(tracer, "cluster.hdbscan", 0, || {
            hdbscan(black_box(&dm), &params)
        });
        clustering = Some(c);
        ns
    });
    out.hdbscan_us = ns / passes as f64 / 1e3;
    let clustering = clustering.expect("at least one pass ran");
    let localisations = clustering.n_clusters() + clustering.noise().len();
    out.localisations_per_anomalous_trace = localisations as f64 / n.max(1) as f64;
    out
}
