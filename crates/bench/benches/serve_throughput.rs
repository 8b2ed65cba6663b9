//! Criterion microbenchmarks for the online serving runtime: shard
//! routing, bounded-queue transfer, and end-to-end ingest throughput
//! of span batches through a sharded runtime with a fitted pipeline.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_gnn::TrainConfig;
use sleuth_serve::{owner_of, BoundedQueue, ServeConfig, ServeRuntime};
use sleuth_synth::presets;
use sleuth_synth::workload::CorpusBuilder;
use sleuth_trace::Span;

fn fitted_pipeline() -> Arc<SleuthPipeline> {
    let app = presets::synthetic(12, 1);
    let train = CorpusBuilder::new(&app).seed(5).normal_traces(100).plain_traces();
    let config = PipelineConfig {
        train: TrainConfig { epochs: 8, batch_traces: 32, lr: 1e-2, seed: 0 },
        ..PipelineConfig::default()
    };
    Arc::new(SleuthPipeline::fit(&train, &config))
}

fn chaos_spans(n_traces: usize) -> Vec<Span> {
    let app = presets::synthetic(12, 1);
    CorpusBuilder::new(&app)
        .seed(5)
        .mixed_traces(n_traces, 8)
        .traces
        .into_iter()
        .flat_map(|t| t.trace.spans().to_vec())
        .collect()
}

fn bench_routing_and_queue(c: &mut Criterion) {
    let spans = chaos_spans(40);
    c.bench_function("shard_route_span_batch", |b| {
        b.iter(|| {
            spans
                .iter()
                .filter_map(|s| owner_of(black_box(s.trace_id), 0..8))
                .sum::<usize>()
        })
    });

    c.bench_function("bounded_queue_push_pop_1k", |b| {
        b.iter(|| {
            let q: BoundedQueue<u64> = BoundedQueue::new(1024);
            for i in 0..1000u64 {
                q.try_push(i).expect("capacity");
            }
            let mut sum = 0u64;
            while let Some(v) = q.try_pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_serve_ingest(c: &mut Criterion) {
    let pipeline = fitted_pipeline();
    let spans = chaos_spans(100);

    // Full cycle per iteration: start a 4-shard runtime, stream the
    // corpus as 400-span batches against a logical clock, drain.
    c.bench_function("serve_ingest_4shard_100_traces", |b| {
        b.iter(|| {
            let runtime = ServeRuntime::start(Arc::clone(&pipeline), ServeConfig {
                num_shards: 4,
                idle_timeout_us: 1_000_000,
                ..ServeConfig::default()
            })
            .expect("valid serve config");
            let mut clock = 0u64;
            for batch in spans.chunks(400) {
                runtime.submit_batch(batch.to_vec(), clock);
                clock += 1_000;
            }
            runtime.tick(clock + 2_000_000);
            let report = runtime.shutdown();
            black_box(report.metrics.traces_completed)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing_and_queue, bench_serve_ingest
);
criterion_main!(benches);
