//! One benchmark run: set up, measure for `--seconds`, check, report.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sleuth_core::pipeline::{AnalyzeOptions, SleuthPipeline};
use sleuth_serve::{ServeConfig, ServeRuntime};
use sleuth_trace::Trace;
use sleuth_wire::{Endpoint, RouterClient, RouterConfig};

use crate::layers::{self, ClusterLayers, IngestLayers, RcaLayers};
use crate::online::{Failures, Outcome, Session, Sink};
use crate::stats;
use crate::sut::{self, Shardd};
use crate::tracer::Tracer;
use crate::workload::{self, Corpus, Mode, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Memory faulted in before the timed section: more than the router and
/// the shard's trace store grow by in a 10 s run of any workload.
const PREFAULT_MB: usize = 768;

/// A measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run produced.
pub struct RunResult {
    pub attempted: u64,
    pub failures: Failures,
    /// Discrepancies outside the per-operation counts (conservation,
    /// exit status); any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Reported, never gated.
    pub info: Vec<Metric>,
    /// Shard flags and other context for the detail line.
    pub context: BTreeMap<&'static str, String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.total() == 0 && self.errors.is_empty()
    }
}

/// Reference verdict per corpus item, from the in-process pipeline:
/// `analyze(.., unclustered())` on what the detector flags.
fn reference_verdicts(pipeline: &SleuthPipeline, corpus: &Corpus) -> Vec<Option<Vec<String>>> {
    let flagged: Vec<usize> = (0..corpus.items.len())
        .filter(|&i| pipeline.detector().is_anomalous(&corpus.items[i].trace))
        .collect();
    let traces: Vec<&Trace> = flagged.iter().map(|&i| &corpus.items[i].trace).collect();
    let mut expected = vec![None; corpus.items.len()];
    for r in pipeline.analyze(&traces, AnalyzeOptions::unclustered()) {
        expected[flagged[r.trace_idx]] = Some(r.services);
    }
    expected
}

/// Spawn the shard [`SETUPS`] times; keep the last one running.
fn setup_shard(
    exe: &std::path::Path,
    spec: &Spec,
    times: usize,
) -> Result<(Shardd, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(times);
    let mut shard = None;
    for _ in 0..times {
        drop(shard.take()); // one at a time: the fit is single-purpose CPU
        let s = Shardd::spawn(exe, spec, "shard")?;
        setups.push(s.setup_s);
        shard = Some(s);
    }
    Ok((shard.expect("times >= 1"), setups))
}

/// Traces the router retains for failover. The default (4096) is 900 MB
/// of 1464-span traces and takes 13 s of `thousand_flood` to fill, so a
/// 10 s run would time the buffer's growth instead of the steady state;
/// with one shard there is no survivor to fail over to anyway.
const FAILOVER_BUFFER_TRACES: usize = 256;

fn connect(shard: &Shardd) -> Result<RouterClient, String> {
    let endpoint = Endpoint::parse(&shard.endpoint()).map_err(|e| e.to_string())?;
    let mut config = RouterConfig::new(vec![endpoint]);
    config.failover_buffer_cap = FAILOVER_BUFFER_TRACES;
    RouterClient::connect(config).map_err(|e| format!("connect: {e}"))
}

/// CPU ns per thread of this process and of the shard, as one map with
/// `router.` / `shard.` prefixes; the main thread of each is `.main`.
fn cpu_threads(shard_pid: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut all = BTreeMap::new();
    for (prefix, pid) in [("router", "self"), ("shard", shard_pid)] {
        for (name, ns) in sut::cpu_by_thread(pid)? {
            all.insert(format!("{prefix}.{name}"), ns);
        }
    }
    Ok(all)
}

fn cpu_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

fn sum_prefix(cpu: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    cpu.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Shut the fleet down and fold every books-don't-balance finding into
/// `errors`.
fn shutdown_and_audit(
    router: RouterClient,
    shard: Shardd,
    spans_sent: u64,
    errors: &mut Vec<String>,
) {
    let report = router.shutdown();
    let m = &report.metrics;
    let accounted = m.spans_stored
        + m.spans_rejected
        + m.spans_shed
        + m.spans_evicted
        + m.spans_deduped
        + m.spans_quarantined;
    if m.spans_submitted != accounted {
        errors.push(format!(
            "shard conservation violated: submitted={} accounted={accounted}",
            m.spans_submitted
        ));
    }
    if report.wire.spans_routed != spans_sent || report.wire.spans_unroutable != 0 {
        errors.push(format!(
            "router routed {} spans (+{} unroutable) of {spans_sent} sent",
            report.wire.spans_routed, report.wire.spans_unroutable
        ));
    }
    if m.spans_submitted != spans_sent {
        errors.push(format!(
            "shard saw {} spans, {spans_sent} were sent",
            m.spans_submitted
        ));
    }
    if !report.verdicts.is_empty() {
        errors.push(format!(
            "{} verdicts arrived only at shutdown",
            report.verdicts.len()
        ));
    }
    if !report.dead_peers.is_empty() || !report.quarantined.is_empty() {
        errors.push(format!(
            "dead peers {:?}, {} quarantined traces",
            report.dead_peers,
            report.quarantined.len()
        ));
    }
    match shard.finish() {
        Ok(lines) => {
            if !lines
                .iter()
                .any(|l| l.starts_with("SHARDD_FINAL") && l.contains("conserved=true"))
            {
                errors.push(format!("no conserved SHARDD_FINAL line: {lines:?}"));
            }
        }
        Err(e) => errors.push(e),
    }
}

fn mode_context(spec: &Spec) -> BTreeMap<&'static str, String> {
    BTreeMap::from([("mode", format!("{:?}", spec.mode))])
}

/// Everything an online run needs before its timed section.
struct OnlineSetup {
    corpus: Corpus,
    reference: Arc<SleuthPipeline>,
    /// Seconds the in-harness reference fit took.
    fit_s: f64,
    expected: Vec<Option<Vec<String>>>,
    shard: Shardd,
    /// `setup_s` of every spawn.
    setups: Vec<f64>,
    router: RouterClient,
    context: BTreeMap<&'static str, String>,
}

/// Build the shard, the corpus and the reference; spawn the shard
/// `spawns` times (keeping the last), connect, and warm the page pool.
fn setup_online(spec: &Spec, seed: u64, spawns: usize) -> Result<OnlineSetup, String> {
    let exe = sut::build_shardd()?;
    let corpus = workload::build_corpus(spec, seed);
    let fit_started = Instant::now();
    let reference = Arc::new(workload::fit_reference(spec));
    let fit_s = fit_started.elapsed().as_secs_f64();
    let expected = reference_verdicts(&reference, &corpus);
    let (shard, setups) = setup_shard(&exe, spec, spawns)?;
    let router = connect(&shard)?;
    let mut context = mode_context(spec);
    context.insert("shardd_flags", shard.flags.join(" "));
    sut::prefault(PREFAULT_MB);
    Ok(OnlineSetup {
        corpus,
        reference,
        fit_s,
        expected,
        shard,
        setups,
        router,
        context,
    })
}

fn top1(out: &Outcome) -> f64 {
    out.top1_hits as f64 / out.labelled.max(1) as f64
}

/// `--trace 0` on an online workload: the end-to-end metrics.
pub fn online(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let OnlineSetup {
        mut corpus,
        reference,
        expected,
        shard,
        mut setups,
        mut router,
        context,
        ..
    } = setup_online(spec, seed, SETUPS)?;
    drop(reference); // only needed to compute `expected`
    let pid = shard.pid().to_string();

    let mut tracer = Tracer::new(false);
    let mut session = Session::new(spec, &mut corpus, &expected, Some(pid.clone()));
    let cpu_before = cpu_threads(&pid)?;
    let mut out = session.run(&mut router, seconds, &mut tracer)?;
    let cpu = cpu_delta(&cpu_before, &cpu_threads(&pid)?);

    let mut errors = Vec::new();
    shutdown_and_audit(router, shard, out.spans, &mut errors);

    let spans = out.spans.max(1) as f64;
    let (cpu_router, cpu_shard) = (
        sum_prefix(&cpu, "router.") as f64,
        sum_prefix(&cpu, "shard.") as f64,
    );
    let p50 = stats::median(&mut out.latency_ms).ok_or("no verdict arrived: nothing to time")?;
    let metrics = vec![
        metric(
            "spans_per_s",
            out.slice_spans_per_s()
                .ok_or("run too short for one slice")?,
            "1/s",
        ),
        metric("verdict_p50_ms", p50, "ms"),
        metric(
            "cpu_us_per_span",
            out.slice_cpu_us_per_span()
                .ok_or("run too short for one slice")?,
            "us",
        ),
        metric("peak_rss_mb", out.rss_mb.ok_or("no RSS sample")?, "MB"),
        metric(
            "setup_s",
            stats::median(&mut setups).expect("SETUPS >= 1"),
            "s",
        ),
        metric("rca_top1", top1(&out), "share"),
    ];
    let slice_rates = || out.slices.iter().map(|s| s.spans as f64 / s.wall_s);
    let mut info = vec![
        metric("spans_per_s_whole_run", spans / out.wall_s, "1/s"),
        metric(
            "spans_per_s_first_slice",
            slice_rates().next().unwrap_or(0.0),
            "1/s",
        ),
        metric(
            "spans_per_s_slowest_slice",
            slice_rates().fold(f64::INFINITY, f64::min),
            "1/s",
        ),
        metric(
            "spans_per_s_fastest_slice",
            slice_rates().fold(0.0, f64::max),
            "1/s",
        ),
        metric(
            "cpu_us_per_span_whole_run",
            (cpu_router + cpu_shard) / spans / 1e3,
            "us",
        ),
        metric("cpu_router_us_per_span", cpu_router / spans / 1e3, "us"),
        metric("cpu_shard_us_per_span", cpu_shard / spans / 1e3, "us"),
        metric("traces", out.traces as f64, "count"),
        metric("spans", out.spans as f64, "count"),
        metric("mb_per_s", out.bytes as f64 / out.wall_s / 1e6, "MB/s"),
        metric("verdict_samples", out.latency_ms.len() as f64, "count"),
        metric("false_alarms", out.false_alarms as f64, "count"),
        metric("gen_busy_share", out.gen_busy_s / out.wall_s, "share"),
        metric("poll_gap_max_us", out.poll_gap_max_us, "us"),
        metric(
            "poll_gaps_over_200us_share",
            out.poll_gaps_over_200us as f64 / out.polls.max(1) as f64,
            "share",
        ),
        metric("drain_ms", out.drain_ms, "ms"),
        metric(
            "rss_checkpoint_reached",
            f64::from(u8::from(out.rss_checkpoint_reached)),
            "bool",
        ),
        metric(
            "failed_share",
            out.failures.total() as f64 / (out.spans + out.verdicts_expected).max(1) as f64,
            "share",
        ),
    ];
    if let Some((p, v)) = stats::tail(&mut out.latency_ms) {
        info.push(metric("verdict_tail_percentile", p, "%"));
        info.push(metric("verdict_tail_ms", v, "ms"));
    }
    if let Some((_, v)) = stats::tail(&mut out.late_ms) {
        info.push(metric("gen_late_tail_ms", v, "ms"));
    }
    Ok(RunResult {
        attempted: out.spans + out.verdicts_expected,
        failures: out.failures,
        errors,
        metrics,
        info,
        context,
    })
}

/// Round-trip time of a metrics request on an otherwise idle connection.
fn wire_hop_us(router: &mut RouterClient, tracer: &mut Tracer) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        tracer
            .span("wire.hop", 0, || router.snapshot())
            .ok_or("shard stopped answering")?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&mut samples).expect("300 samples"))
}

/// What only a run through router and shard can measure; all zero for
/// the batch workload.
#[derive(Default)]
struct OnlineLayers {
    hop_us: f64,
    serve_ingest_ns: f64,
    rca_us_p50: f64,
    queue_depth_p99: f64,
    router_main_us: f64,
    router_reader_us: f64,
    shard_reader_us: f64,
    shard_worker_us: f64,
    shard_rca_us: f64,
    shard_writer_us: f64,
    tracing_overhead: f64,
}

/// Every per-layer metric of `BENCHMARK.json`, in one place. A layer
/// that does no work on the workload reports its default, 0.
fn layer_metrics(
    ingest: &IngestLayers,
    rca: &RcaLayers,
    cluster: &ClusterLayers,
    online: &OnlineLayers,
    fit_s: f64,
    unattributed_share: f64,
) -> Vec<Metric> {
    [
        ("trace.scan_ns_per_span", ingest.scan_ns, "ns"),
        ("trace.assemble_ns_per_span", ingest.assemble_ns, "ns"),
        ("wire.encode_ns_per_span", ingest.encode_ns, "ns"),
        ("wire.decode_ns_per_span", ingest.decode_ns, "ns"),
        ("wire.bytes_per_span", ingest.bytes_per_span, "B"),
        ("wire.hop_us", online.hop_us, "us"),
        ("serve.ingest_ns_per_span", online.serve_ingest_ns, "ns"),
        ("serve.rca_us_p50", online.rca_us_p50, "us"),
        ("serve.queue_depth_p99", online.queue_depth_p99, "count"),
        ("store.collect_ns_per_span", ingest.collect_ns, "ns"),
        ("store.extend_ns_per_span", ingest.store_extend_ns, "ns"),
        ("core.detect_ns_per_trace", rca.detect_ns_per_trace, "ns"),
        ("core.prune_us_per_trace", rca.prune_us_per_trace, "us"),
        (
            "core.pruned_span_fraction",
            rca.pruned_span_fraction,
            "share",
        ),
        ("core.localise_us_p50", rca.localise_us_p50, "us"),
        (
            "core.candidates_per_trace",
            rca.candidates_per_trace,
            "count",
        ),
        (
            "gnn.predict_calls_per_localisation",
            rca.predict_calls_per_localisation,
            "count",
        ),
        (
            "gnn.nodes_recomputed_per_call",
            rca.nodes_recomputed_per_call,
            "count",
        ),
        ("gnn.encode_us_per_trace", rca.encode_us_per_trace, "us"),
        ("gnn.fit_s", fit_s, "s"),
        (
            "tensor.mlp_forward_ns_per_node",
            rca.mlp_forward_ns_per_node,
            "ns",
        ),
        (
            "embed.featurize_ns_per_span",
            rca.featurize_ns_per_span,
            "ns",
        ),
        (
            "cluster.encode_us_per_trace",
            cluster.encode_us_per_trace,
            "us",
        ),
        (
            "cluster.distance_ns_per_pair",
            cluster.distance_ns_per_pair,
            "ns",
        ),
        ("cluster.hdbscan_us", cluster.hdbscan_us, "us"),
        (
            "cluster.localisations_per_anomalous_trace",
            cluster.localisations_per_anomalous_trace,
            "count",
        ),
        ("router.main_cpu_us_per_span", online.router_main_us, "us"),
        (
            "router.reader_cpu_us_per_span",
            online.router_reader_us,
            "us",
        ),
        ("shard.reader_cpu_us_per_span", online.shard_reader_us, "us"),
        ("shard.worker_cpu_us_per_span", online.shard_worker_us, "us"),
        ("shard.rca_cpu_us_per_span", online.shard_rca_us, "us"),
        ("shard.writer_cpu_us_per_span", online.shard_writer_us, "us"),
        ("tracing_overhead_share", online.tracing_overhead, "share"),
        ("unattributed_share", unattributed_share, "share"),
    ]
    .into_iter()
    .map(|(name, value, unit)| metric(name, value, unit))
    .collect()
}

/// `--trace 1` on an online workload: the per-layer metrics.
///
/// The timed section is four quarters on one shard — untraced, traced,
/// traced, untraced — so both halves see the same store growth; their
/// `cpu_us_per_span` ratio is the tracing overhead.
pub fn online_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<(RunResult, Tracer), String> {
    let OnlineSetup {
        mut corpus,
        reference,
        fit_s,
        expected,
        shard,
        mut router,
        context,
        ..
    } = setup_online(spec, seed, 1)?;
    let pid = shard.pid().to_string();

    let mut tracer = Tracer::new(false);
    let mut session = Session::new(spec, &mut corpus, &expected, None);
    // [untraced, traced]
    let mut cpu_ns = [0u64; 2];
    let mut spans = [0u64; 2];
    let mut traces = 0u64;
    let mut verdicts = 0u64;
    let mut failures = Failures::default();
    let mut rca_us = Vec::new();
    let mut threads: BTreeMap<String, u64> = BTreeMap::new();
    let mut queue_depth_p99 = 0.0;
    // U T T U: both halves see the same mean store size.
    for traced in [false, true, true, false] {
        tracer.set_enabled(traced);
        let before = cpu_threads(&pid)?;
        let mut out = session.run(&mut router, seconds / 4.0, &mut tracer)?;
        let delta = cpu_delta(&before, &cpu_threads(&pid)?);
        cpu_ns[usize::from(traced)] += delta.values().sum::<u64>();
        spans[usize::from(traced)] += out.spans;
        traces += out.traces;
        verdicts += out.verdicts_expected;
        failures.add(&out.failures);
        rca_us.append(&mut out.rca_us);
        for (k, v) in delta {
            *threads.entry(k).or_insert(0) += v;
        }
        queue_depth_p99 = out.snapshot.queue_depth.quantile_upper_bound(0.99) as f64;
    }
    tracer.set_enabled(true);
    let hop_us = wire_hop_us(&mut router, &mut tracer)?;
    let mut errors = Vec::new();
    shutdown_and_audit(router, shard, spans[0] + spans[1], &mut errors);
    drop(session);

    // The same traffic against an in-process runtime with the shard's
    // configuration: what serving costs without the wire.
    let serve_cfg = ServeConfig {
        num_shards: 1,
        idle_timeout_us: spec.idle_us,
        ..ServeConfig::default()
    };
    let mut runtime =
        ServeRuntime::start(Arc::clone(&reference), serve_cfg).map_err(|e| e.to_string())?;
    tracer.set_enabled(false);
    let serve_before = sut::cpu_by_thread("self")?;
    let mut inproc = Session::new(spec, &mut corpus, &expected, None);
    let serve_out = inproc.run(&mut runtime, (seconds / 5.0).min(2.0), &mut tracer)?;
    let serve_cpu = cpu_delta(&serve_before, &sut::cpu_by_thread("self")?);
    drop(inproc);
    failures.add(&serve_out.failures);
    let serve_report = runtime.shutdown();
    if !serve_report.quarantined.is_empty() {
        errors.push(format!(
            "in-process runtime quarantined {} traces",
            serve_report.quarantined.len()
        ));
    }
    // Runtime threads only: the submitter's scan is the router's cost.
    let serve_ns = serve_cpu
        .iter()
        .filter(|(k, _)| k.starts_with("sleuth-shard") || k.starts_with("sleuth-rca"))
        .map(|(_, v)| *v)
        .sum::<u64>() as f64;
    tracer.set_enabled(true);

    let ingest = layers::ingest(spec, &corpus, &mut tracer);
    let rca = layers::rca(&reference, &corpus, &mut tracer);
    let cluster = ClusterLayers::default(); // PerTrace serving never clusters

    let all_spans = (spans[0] + spans[1]).max(1) as f64;
    let cpu_us_per_span = (cpu_ns[0] + cpu_ns[1]) as f64 / all_spans / 1e3;
    // Budget: each layer's measured unit cost times the units this run
    // actually pushed through it, against the CPU the run really used.
    let attributed_us = (ingest.scan_ns
        + ingest.encode_ns
        + ingest.decode_ns
        + ingest.collect_ns
        + ingest.store_extend_ns
        + ingest.assemble_ns)
        / 1e3
        + (rca.detect_ns_per_trace / 1e3 * traces as f64 + rca.localise_us_mean * verdicts as f64)
            / all_spans;
    let per_span = |ns: u64| ns as f64 / all_spans / 1e3;
    let thread = |name: &str| per_span(threads.get(name).copied().unwrap_or(0));
    let traced_us = cpu_ns[1] as f64 / spans[1].max(1) as f64 / 1e3;
    let untraced_us = cpu_ns[0] as f64 / spans[0].max(1) as f64 / 1e3;

    let router_main = threads.get("router.main").copied().unwrap_or(0);
    let online = OnlineLayers {
        hop_us,
        serve_ingest_ns: serve_ns / serve_out.spans.max(1) as f64,
        rca_us_p50: stats::median(&mut rca_us).unwrap_or(0.0),
        queue_depth_p99,
        router_main_us: per_span(router_main),
        router_reader_us: per_span(sum_prefix(&threads, "router.") - router_main),
        shard_reader_us: thread("shard.main"),
        shard_worker_us: thread("shard.sleuth-shard-0"),
        shard_rca_us: thread("shard.sleuth-rca-0"),
        shard_writer_us: thread("shard.sleuth-shardd"),
        tracing_overhead: traced_us / untraced_us - 1.0,
    };
    let metrics = layer_metrics(
        &ingest,
        &rca,
        &cluster,
        &online,
        fit_s,
        1.0 - attributed_us / cpu_us_per_span,
    );
    let info = vec![
        metric("cpu_us_per_span", cpu_us_per_span, "us"),
        metric("cpu_us_per_span_traced", traced_us, "us"),
        metric("cpu_us_per_span_untraced", untraced_us, "us"),
        metric("attributed_us_per_span", attributed_us, "us"),
        metric("core.localise_us_mean", rca.localise_us_mean, "us"),
        metric(
            "detected_share_of_traces",
            verdicts as f64 / traces.max(1) as f64,
            "share",
        ),
        metric(
            "localise_share_of_cpu",
            rca.localise_us_mean * verdicts as f64 / all_spans / cpu_us_per_span,
            "share",
        ),
        metric("trace_spans_recorded", tracer.len() as f64, "count"),
    ];
    Ok((
        RunResult {
            attempted: (spans[0] + spans[1])
                + verdicts
                + serve_out.spans
                + serve_out.verdicts_expected,
            failures,
            errors,
            metrics,
            info,
            context,
        },
        tracer,
    ))
}

/// What the batch workload analyses, and with what.
struct Batch {
    corpus: Corpus,
    pipeline: SleuthPipeline,
    fits_s: Vec<f64>,
}

fn setup_batch(spec: &Spec, seed: u64, fits: usize) -> Batch {
    let corpus = workload::build_corpus(spec, seed);
    let mut fits_s = Vec::with_capacity(fits);
    let mut pipeline = None;
    for _ in 0..fits {
        let t = Instant::now();
        pipeline = Some(workload::fit_reference(spec));
        fits_s.push(t.elapsed().as_secs_f64());
    }
    Batch {
        corpus,
        pipeline: pipeline.expect("fits >= 1"),
        fits_s,
    }
}

/// Repeat the clustered analyze for `seconds`; returns per-call
/// seconds and the (identical every call) results' top-1 hits.
fn analyze_loop(batch: &Batch, seconds: f64, tracer: &mut Tracer) -> (Vec<f64>, u64, Failures) {
    let traces: Vec<&Trace> = batch.corpus.items.iter().map(|i| &i.trace).collect();
    let mut calls = Vec::new();
    let mut failures = Failures::default();
    let mut hits = 0;
    let started = Instant::now();
    let mut first: Option<Vec<Vec<String>>> = None;
    while calls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let results = tracer.span("core.analyze_clustered", calls.len() as u64 + 1, || {
            batch.pipeline.analyze(&traces, AnalyzeOptions::clustered())
        });
        calls.push(t.elapsed().as_secs_f64());
        let services: Vec<Vec<String>> = results.into_iter().map(|r| r.services).collect();
        // One result per trace, none empty, and every call agrees with
        // the first: a batch is deterministic.
        failures.verdicts_missing += (traces.len() - services.len()) as u64;
        failures.verdicts_degraded += services.iter().filter(|s| s.is_empty()).count() as u64;
        match &first {
            None => {
                hits = services
                    .iter()
                    .zip(&batch.corpus.items)
                    .filter(|(s, item)| s.first().is_some_and(|f| item.truth.contains(f)))
                    .count() as u64;
                first = Some(services);
            }
            Some(f) => {
                failures.verdicts_mismatched +=
                    f.iter().zip(&services).filter(|(a, b)| a != b).count() as u64
            }
        }
    }
    (calls, hits, failures)
}

/// `--trace 0` on the batch workload.
pub fn batch(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut b = setup_batch(spec, seed, SETUPS);
    let n = b.corpus.items.len() as u64;
    let spans_per_call: u64 = b.corpus.items.iter().map(|i| i.spans() as u64).sum();
    let mut tracer = Tracer::new(false);
    let cpu_before = sut::cpu_total_ns("self")?;
    let (mut calls, hits, failures) = analyze_loop(&b, seconds, &mut tracer);
    let cpu = (sut::cpu_total_ns("self")? - cpu_before) as f64;
    let wall: f64 = calls.iter().sum();
    let spans = (spans_per_call * calls.len() as u64) as f64;
    let metrics = vec![
        metric("spans_per_s", spans / wall, "1/s"),
        metric(
            "verdict_p50_ms",
            stats::median(&mut calls).expect("at least one call") * 1e3,
            "ms",
        ),
        metric("cpu_us_per_span", cpu / spans / 1e3, "us"),
        metric("peak_rss_mb", sut::peak_rss_mb("self")?, "MB"),
        metric(
            "setup_s",
            stats::median(&mut b.fits_s).expect("SETUPS >= 1"),
            "s",
        ),
        metric("rca_top1", hits as f64 / n.max(1) as f64, "share"),
    ];
    let info = vec![
        metric("analyze_calls", calls.len() as f64, "count"),
        metric("traces_per_call", n as f64, "count"),
        metric(
            "failed_share",
            failures.total() as f64 / (n * calls.len() as u64).max(1) as f64,
            "share",
        ),
    ];
    Ok(RunResult {
        attempted: n * calls.len() as u64,
        failures,
        errors: Vec::new(),
        metrics,
        info,
        context: mode_context(spec),
    })
}

/// `--trace 1` on the batch workload.
pub fn batch_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<(RunResult, Tracer), String> {
    let b = setup_batch(spec, seed, 1);
    let n = b.corpus.items.len() as u64;
    let spans_per_call: f64 = b.corpus.items.iter().map(|i| i.spans() as f64).sum();
    let mut tracer = Tracer::new(true);
    let (mut calls, _, failures) = analyze_loop(&b, seconds / 2.0, &mut tracer);
    let call_us = stats::median(&mut calls).expect("at least one call") * 1e6;

    let traces: Vec<&Trace> = b.corpus.items.iter().map(|i| &i.trace).collect();
    let cluster = layers::cluster(&b.pipeline, &traces, &mut tracer);
    let rca = layers::rca(&b.pipeline, &b.corpus, &mut tracer);
    let ingest = IngestLayers::default(); // a batch bypasses scan, wire and serve

    let localisations = cluster.localisations_per_anomalous_trace * n as f64;
    let pairs = (n * n.saturating_sub(1) / 2) as f64;
    let attributed_us = cluster.encode_us_per_trace * n as f64
        + cluster.distance_ns_per_pair * pairs / 1e3
        + cluster.hdbscan_us
        + rca.localise_us_mean * localisations;
    let metrics = layer_metrics(
        &ingest,
        &rca,
        &cluster,
        &OnlineLayers::default(),
        b.fits_s[0],
        1.0 - attributed_us / call_us,
    );
    let info = vec![
        metric("analyze_call_us", call_us, "us"),
        metric("attributed_us_per_call", attributed_us, "us"),
        metric("cpu_us_per_span", call_us / spans_per_call, "us"),
        metric("core.localise_us_mean", rca.localise_us_mean, "us"),
        metric("localisations_per_call", localisations, "count"),
    ];
    Ok((
        RunResult {
            attempted: n * calls.len() as u64,
            failures,
            errors: Vec::new(),
            metrics,
            info,
            context: mode_context(spec),
        },
        tracer,
    ))
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(RunResult, Option<Tracer>), String> {
    match (spec.mode, trace) {
        (Mode::Batch, false) => batch(spec, seed, seconds).map(|r| (r, None)),
        (Mode::Batch, true) => batch_traced(spec, seed, seconds).map(|(r, t)| (r, Some(t))),
        (_, false) => online(spec, seed, seconds).map(|r| (r, None)),
        (_, true) => online_traced(spec, seed, seconds).map(|(r, t)| (r, Some(t))),
    }
}
