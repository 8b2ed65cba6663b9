//! Multi-process serving integration tests: the wire layer's central
//! contract is **fault transparency** — a router fanning batches out
//! to shard-server processes must produce the same verdict set as the
//! single-process runtime, with or without budgeted network chaos in
//! between — plus cross-process span conservation, typed rejection of
//! malformed frames, control-message round trips, and degraded
//! verdicts for dead peers.
//!
//! Shard "processes" here are threads running [`serve_shard`] over
//! real Unix-domain sockets — the full wire stack (frames, sessions,
//! reconnects) with none of the binary-spawning flakiness;
//! `examples/multi_process_serving.rs` covers the true multi-process
//! topology.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sleuth::chaos::{
    corrupt_batch, Corruption, NetFaultPlan, NetInjector, ProcFate, ProcFaultPlan, ProcInjector,
};
use sleuth::core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth::gnn::TrainConfig;
use sleuth::serve::{owner_of, NoFaults, ServeConfig, ServeRuntime, Verdict};
use sleuth::synth::presets;
use sleuth::synth::workload::CorpusBuilder;
use sleuth::trace::{Span, Trace};
use sleuth::wire::{
    encode_frame, serve_shard, Endpoint, Frame, FrameFate, FrameReader, Msg, NoWireFaults,
    RouterClient, RouterConfig, ShardFinal, ShardServerConfig, WireError, WireFaultInjector,
    WireListener, WireMetrics, WireStream, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC,
    PROTOCOL_VERSION,
};

/// One quick-fitted pipeline shared by every test in this file.
fn pipeline() -> Arc<SleuthPipeline> {
    static PIPELINE: OnceLock<Arc<SleuthPipeline>> = OnceLock::new();
    Arc::clone(PIPELINE.get_or_init(|| {
        let app = presets::synthetic(12, 1);
        let train = CorpusBuilder::new(&app)
            .seed(5)
            .normal_traces(120)
            .plain_traces();
        let config = PipelineConfig {
            train: TrainConfig {
                epochs: 12,
                batch_traces: 32,
                lr: 1e-2,
                seed: 0,
            },
            ..PipelineConfig::default()
        };
        Arc::new(SleuthPipeline::fit(&train, &config))
    }))
}

fn workload(n: usize, anomalies: usize) -> Vec<Trace> {
    let app = presets::synthetic(12, 1);
    CorpusBuilder::new(&app)
        .seed(5)
        .mixed_traces(n, anomalies)
        .traces
        .into_iter()
        .map(|t| t.trace)
        .collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        num_shards: 2,
        idle_timeout_us: 1_000_000,
        ..ServeConfig::default()
    }
}

/// Fresh UDS endpoint under the OS temp dir, unique per call.
fn uds_endpoint(tag: &str) -> Endpoint {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    Endpoint::Unix(
        std::env::temp_dir().join(format!("sleuth-wt-{}-{tag}-{n}.sock", std::process::id())),
    )
}

struct ShardHandle {
    handle: JoinHandle<Result<ShardFinal, WireError>>,
    metrics: Arc<WireMetrics>,
}

/// Bind `endpoint` and run a shard server on a background thread.
fn spawn_shard(
    endpoint: &Endpoint,
    shard_id: usize,
    wire_faults: Arc<dyn WireFaultInjector>,
) -> ShardHandle {
    let listener = WireListener::bind(endpoint).expect("bind shard endpoint");
    let metrics = Arc::new(WireMetrics::default());
    let pipeline = pipeline();
    let config = ShardServerConfig::new(shard_id, serve_config());
    let thread_metrics = Arc::clone(&metrics);
    let handle = std::thread::spawn(move || {
        serve_shard(
            &listener,
            pipeline,
            config,
            Arc::new(NoFaults),
            wire_faults,
            thread_metrics,
        )
    });
    ShardHandle { handle, metrics }
}

/// Comparable verdict identity: everything except the latency
/// measurement, which legitimately differs run to run.
type VerdictKey = (u64, Vec<String>, Option<isize>, u64, bool);

fn verdict_key(v: &Verdict) -> VerdictKey {
    (
        v.trace_id,
        v.services.clone(),
        v.cluster,
        v.model_version.0,
        v.degraded,
    )
}

fn verdict_set(verdicts: &[Verdict]) -> BTreeSet<VerdictKey> {
    verdicts.iter().map(verdict_key).collect()
}

fn assert_conservation(m: &sleuth::serve::MetricsSnapshot) {
    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined,
        "span conservation violated: {m:?}"
    );
}

/// Single-process reference: run the in-process runtime over the
/// same traffic and return its verdicts.
fn single_process_reference(traces: &[Trace]) -> Vec<Verdict> {
    let runtime =
        ServeRuntime::start(pipeline(), serve_config()).expect("valid single-process config");
    let mut clock = 0u64;
    for trace in traces {
        runtime.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }
    runtime.tick(clock + 2_000_000);
    let report = runtime.shutdown();
    assert_conservation(&report.metrics);
    report.verdicts
}

/// Multi-process run: two shard servers over UDS plus a router, with
/// `faults` injected into every frame writer on both sides. Returns
/// (router report, per-shard wire metrics).
fn multi_process_run(
    traces: &[Trace],
    faults: Arc<dyn WireFaultInjector>,
    router_cfg: impl FnOnce(RouterConfig) -> RouterConfig,
) -> (
    sleuth::wire::RouterReport,
    Vec<sleuth::wire::WireMetricsSnapshot>,
) {
    let endpoints = [uds_endpoint("a"), uds_endpoint("b")];
    let shards: Vec<ShardHandle> = endpoints
        .iter()
        .enumerate()
        .map(|(id, ep)| spawn_shard(ep, id, Arc::clone(&faults)))
        .collect();

    let config = router_cfg(RouterConfig::new(endpoints.to_vec()));
    let mut router = RouterClient::connect_with_injector(config, faults).expect("router connects");
    let mut clock = 0u64;
    for trace in traces {
        let report = router.submit_batch(trace.spans().to_vec(), clock);
        assert_eq!(report.rejected, 0, "no dead peers in this run");
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);
    let report = router.shutdown();

    let mut shard_wire = Vec::new();
    for shard in shards {
        let final_state = shard
            .handle
            .join()
            .expect("shard thread not poisoned")
            .expect("shard exits cleanly");
        assert_conservation(&final_state.metrics);
        shard_wire.push(shard.metrics.snapshot());
    }
    (report, shard_wire)
}

/// The headline gate, fault-free half: a router over two shard-server
/// processes produces exactly the verdict set of the single-process
/// runtime, and span conservation balances across process boundaries.
#[test]
fn multi_process_run_matches_single_process() {
    let traces = workload(60, 8);
    let reference = single_process_reference(&traces);
    let (report, _) = multi_process_run(&traces, Arc::new(NoWireFaults), |c| c);

    assert!(!reference.is_empty(), "workload produced no verdicts");
    assert_eq!(
        verdict_set(&report.verdicts),
        verdict_set(&reference),
        "multi-process verdicts diverge from single-process"
    );
    assert!(report.dead_peers.is_empty());
    assert_eq!(report.shard_finals.iter().flatten().count(), 2);

    // Cross-process conservation: the merged snapshot must balance,
    // and every span the router routed must be accounted for by the
    // shards' merged intake.
    assert_conservation(&report.metrics);
    let total_spans: u64 = traces.iter().map(|t| t.spans().len() as u64).sum();
    assert_eq!(report.metrics.spans_submitted, total_spans);
    assert_eq!(report.wire.spans_routed, total_spans);
    assert_eq!(report.wire.spans_unroutable, 0);
}

/// The headline gate, chaos half: under a seeded, budgeted network
/// fault plan (drops, duplicates, reorders, corruption, a truncated
/// frame, a killed connection, stalled reconnects) the verdict set is
/// *still* identical to the single-process run, faults demonstrably
/// fired, and conservation still balances.
#[test]
fn fault_transparency_under_budgeted_network_chaos() {
    let traces = workload(60, 8);
    let reference = single_process_reference(&traces);

    let injector = Arc::new(NetInjector::new(NetFaultPlan {
        seed: 2024,
        drop_rate: 1.0,
        drop_budget: 2,
        duplicate_rate: 0.25,
        duplicate_budget: 3,
        reorder_rate: 0.25,
        reorder_budget: 3,
        corrupt_rate: 0.5,
        corrupt_budget: 3,
        truncate_rate: 0.05,
        truncate_budget: 1,
        kill_rate: 0.05,
        kill_budget: 1,
        connect_stall: Some(Duration::from_millis(5)),
        connect_stall_budget: 4,
    }));
    let (report, shard_wire) = multi_process_run(
        &traces,
        Arc::clone(&injector) as Arc<dyn WireFaultInjector>,
        |c| c,
    );

    // The rate-1.0 drop class spends its whole budget deterministically
    // (every data frame rolls it until drained); the probabilistic
    // classes fire as their rolls land, which varies with resend
    // timing — so assert the certain class exactly and the rest in
    // aggregate.
    assert_eq!(injector.injected_drops(), 2, "drop budget not spent");
    assert!(injector.injected_total() > 2, "only the drop class fired");
    assert_eq!(
        verdict_set(&report.verdicts),
        verdict_set(&reference),
        "verdicts diverge under network chaos (injected {})",
        injector.injected_total()
    );
    assert_conservation(&report.metrics);
    let total_spans: u64 = traces.iter().map(|t| t.spans().len() as u64).sum();
    assert_eq!(report.metrics.spans_submitted, total_spans);

    // Corrupted frames that reach a reader show up as counted
    // checksum rejections on whichever side received them (router or
    // shard), never as a crash. A corrupt frame can also die in a
    // socket buffer when a kill/truncate severs the connection first,
    // so the count is bounded by, not equal to, the injection count.
    let checksum_rejections = report.wire.rejected("checksum_mismatch")
        + shard_wire
            .iter()
            .map(|m| m.rejected("checksum_mismatch"))
            .sum::<u64>();
    assert!(checksum_rejections <= injector.injected_corrupts());
    assert!(
        injector.injected_corrupts() > 0,
        "corrupt class never fired"
    );
}

/// Malformed, oversized, and corrupt frames from a hostile client are
/// rejected with typed, counted errors — the server drops the
/// connection where the stream is unrecoverable, keeps listening, and
/// a well-behaved router still completes a full run afterwards.
#[test]
fn malformed_frames_are_rejected_and_server_survives() {
    let endpoint = uds_endpoint("hostile");
    let shard = spawn_shard(&endpoint, 0, Arc::new(NoWireFaults));

    // 1. Garbage bytes: bad magic is stream-fatal; server hangs up.
    let garbage = WireStream::connect(&endpoint).expect("connect");
    {
        let mut s = garbage.try_clone().expect("clone");
        s.write_all(b"GET /frames HTTP/1.1\r\nHost: sleuth\r\n\r\n")
            .expect("write garbage");
    }
    wait_for(
        || shard.metrics.snapshot().rejected("bad_magic") == 1,
        "bad magic counted",
    );
    garbage.shutdown_both();

    // 2. Oversized frame: a valid header declaring a 1 GiB payload is
    // rejected from the header alone.
    let oversized = WireStream::connect(&endpoint).expect("connect");
    {
        let mut s = oversized.try_clone().expect("clone");
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        header.push(1); // frame type: Hello
        header.push(0); // flags
        header.extend_from_slice(&(1u32 << 30).to_le_bytes()); // 1 GiB
        header.extend_from_slice(&0u64.to_le_bytes());
        s.write_all(&header).expect("write oversized header");
    }
    wait_for(
        || shard.metrics.snapshot().rejected("oversized") == 1,
        "oversized counted",
    );
    oversized.shutdown_both();

    // 3. Checksum corruption is NOT fatal: the frame is skipped and
    // the same connection still completes the handshake.
    let flaky = WireStream::connect(&endpoint).expect("connect");
    {
        let mut s = flaky.try_clone().expect("clone");
        let mut bytes = encode_frame(
            &Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
                session_id: 1,
                resume: false,
            },
            PROTOCOL_VERSION,
        );
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // corrupt the payload => checksum mismatch
        s.write_all(&bytes).expect("write corrupt frame");
    }
    wait_for(
        || shard.metrics.snapshot().rejected("checksum_mismatch") == 1,
        "checksum mismatch counted",
    );
    flaky.shutdown_both();

    // 4. The server is still healthy: a real router completes a run.
    let mut router =
        RouterClient::connect(RouterConfig::new(vec![endpoint])).expect("router connects");
    let traces = workload(6, 2);
    let mut clock = 0u64;
    for trace in &traces {
        router.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);
    let report = router.shutdown();
    assert!(report.dead_peers.is_empty());
    assert_conservation(&report.metrics);
    shard
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
}

/// The router's connection dying mid-shutdown must not strand a shard.
/// A shard that cannot ack `Shutdown` still drains, so the resumed
/// session replays the final state (the router's replayed `Shutdown`
/// is a duplicate it would otherwise ignore). A drained shard keeps
/// reading after a failed write, because the router may close as soon
/// as it holds the final state, its last ack buffered behind a
/// duplicate the shard can no longer answer.
#[test]
fn shard_drains_and_finishes_across_failed_writes() {
    let endpoint = uds_endpoint("drain");
    let shard = spawn_shard(&endpoint, 0, Arc::new(NoWireFaults));
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("uds_endpoint is a Unix endpoint")
    };
    // Say Hello and read until `until`; then stop reading, so every
    // shard write from here on fails, and send `then`.
    let connect = |resume, until: fn(&Frame) -> bool, then: &[Frame]| {
        let client = UnixStream::connect(path).expect("connect");
        let timeout = Some(Duration::from_secs(10));
        client.set_read_timeout(timeout).expect("read timeout");
        let send = |frame: &Frame| (&client).write_all(&encode_frame(frame, PROTOCOL_VERSION));
        send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
            session_id: 7,
            resume,
        })
        .expect("send Hello");
        let mut reader = FrameReader::new(&client, DEFAULT_MAX_FRAME_LEN, Arc::default());
        while !until(&reader.read_frame().expect("shard replies")) {}
        client.shutdown(Shutdown::Read).expect("stop reading");
        then.iter().for_each(|frame| send(frame).expect("send"));
        client
    };
    let shutdown = Frame::Data {
        seq: 1,
        msg: Msg::Shutdown,
    };
    let _first = connect(
        false,
        |f| matches!(f, Frame::HelloAck { .. }),
        std::slice::from_ref(&shutdown),
    );
    // `acks_sent` counts the failed attempt to ack Shutdown.
    wait_for(|| shard.metrics.snapshot().acks_sent == 1, "Shutdown read");
    let _second = connect(
        true,
        |f| matches!(f, Frame::Data { msg, .. } if matches!(msg, Msg::ShutdownReply(_))),
        &[shutdown, Frame::Ack { upto: 1 }],
    );
    wait_for(|| shard.handle.is_finished(), "drained shard finished");
    shard
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
}

/// `ShutdownReply` is the last data frame of a drained session. The
/// span batches, the tick and `Shutdown` arrive back to back, so the
/// RCA stage is still emitting verdicts when the shard starts its
/// drain; every one of them must be sequenced before the reply (none
/// staged after it) and the verdict set must still equal the
/// single-process reference.
#[test]
fn shutdown_reply_is_the_last_data_frame() {
    let traces = workload(60, 8);
    let reference = single_process_reference(&traces);
    let endpoint = uds_endpoint("order");
    let shard = spawn_shard(&endpoint, 0, Arc::new(NoWireFaults));
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("uds_endpoint is a Unix endpoint")
    };
    let client = UnixStream::connect(path).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let send = |frame: &Frame| {
        (&client)
            .write_all(&encode_frame(frame, PROTOCOL_VERSION))
            .expect("send")
    };
    send(&Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
        session_id: 11,
        resume: false,
    });
    let mut reader = FrameReader::new(&client, DEFAULT_MAX_FRAME_LEN, Arc::default());
    assert!(matches!(
        reader.read_frame().expect("shard replies"),
        Frame::HelloAck { .. }
    ));

    let mut clock = 0u64;
    let mut msgs = Vec::new();
    for trace in &traces {
        msgs.push(Msg::SpanBatch {
            now_us: clock,
            spans: trace.spans().to_vec(),
        });
        clock += 1_000;
    }
    msgs.push(Msg::Tick {
        now_us: clock + 2_000_000,
    });
    msgs.push(Msg::Shutdown);
    for (seq, msg) in (1u64..).zip(msgs) {
        send(&Frame::Data { seq, msg });
    }

    // Read every data frame, acking as they arrive, until the shard
    // hangs up once its final state is acked. After the reply only
    // replays of frames already seen may arrive.
    let mut data: BTreeMap<u64, Msg> = BTreeMap::new();
    let mut reply_seq = None;
    loop {
        match reader.read_frame() {
            Ok(Frame::Data { seq, msg }) => {
                if let Some(reply) = reply_seq {
                    assert!(
                        data.contains_key(&seq),
                        "new data frame {seq} ({msg:?}) after ShutdownReply {reply}"
                    );
                }
                if matches!(msg, Msg::ShutdownReply(_)) {
                    reply_seq = Some(seq);
                }
                data.entry(seq).or_insert(msg);
                let upto = (1u64..).take_while(|s| data.contains_key(s)).last();
                if let Some(upto) = upto {
                    send(&Frame::Ack { upto });
                }
            }
            Ok(_) => {}
            Err(WireError::Timeout) => panic!("shard went silent before finishing"),
            Err(e) if e.is_stream_fatal() => break,
            Err(_) => {}
        }
    }
    let reply_seq = reply_seq.expect("ShutdownReply received");
    assert_eq!(
        data.keys().last(),
        Some(&reply_seq),
        "ShutdownReply not last"
    );
    assert!(
        data.keys().copied().eq(1..=reply_seq),
        "data sequence has gaps"
    );
    let verdicts: Vec<Verdict> = data
        .into_values()
        .filter_map(|msg| match msg {
            Msg::Verdict(v) => Some(v),
            _ => None,
        })
        .collect();
    assert!(!reference.is_empty(), "workload produced no verdicts");
    assert_eq!(verdict_set(&verdicts), verdict_set(&reference));
    assert_eq!(verdicts.len(), reference.len(), "duplicate verdicts");
    let final_state = shard
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
    assert_conservation(&final_state.metrics);
}

/// Drops the shard's first outgoing data frame, once.
#[derive(Default)]
struct DropFirstFrame {
    dropped: AtomicBool,
}

impl WireFaultInjector for DropFirstFrame {
    fn frame_fate(&self, _peer: usize, _counter: u64) -> FrameFate {
        if self.dropped.swap(true, Ordering::SeqCst) {
            FrameFate::Deliver
        } else {
            FrameFate::Drop
        }
    }
}

/// A lost verdict frame is replayed by the shard's ack-stall watch even
/// when nothing follows it: the router sends no further traffic that
/// could produce output (and so no later frame whose gap would draw a
/// `Nack`), so only a writer that wakes on its stall deadline — not
/// just on new output — recovers the verdict.
#[test]
fn lost_verdict_frame_is_replayed_with_no_later_traffic() {
    let traces = workload(60, 8);
    let reference = single_process_reference(&traces);
    let expected = reference.first().expect("workload produced verdicts");
    let trace = traces
        .iter()
        .find(|t| t.trace_id() == expected.trace_id)
        .expect("verdict names a submitted trace");

    let endpoint = uds_endpoint("stall");
    let injector = Arc::new(DropFirstFrame::default());
    let shard = spawn_shard(&endpoint, 0, Arc::clone(&injector) as _);
    let mut router =
        RouterClient::connect(RouterConfig::new(vec![endpoint])).expect("router connects");
    // The only traffic: one anomalous trace and the tick that closes
    // it. Its verdict is the shard's first data frame, and is dropped.
    router.submit_batch(trace.spans().to_vec(), 0);
    router.tick(2_000_000);
    let deadline = Instant::now() + Duration::from_secs(10);
    let verdicts = loop {
        let verdicts = router.poll_verdicts();
        if !verdicts.is_empty() {
            break verdicts;
        }
        assert!(Instant::now() < deadline, "lost verdict never replayed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(injector.dropped.load(Ordering::SeqCst), "no frame dropped");
    assert_eq!(
        verdict_set(&verdicts),
        verdict_set(std::slice::from_ref(expected))
    );
    // The replay is counted just after its write, so the router can
    // hold the verdict a moment before the count lands.
    wait_for(
        || shard.metrics.snapshot().frames_resent >= 1,
        "the replay counted",
    );

    let report = router.shutdown();
    assert!(report.verdicts.is_empty(), "verdict delivered twice");
    shard
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
}

fn wait_for(cond: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Control-plane round trips: publish bumps every shard's model
/// version, metrics snapshots stream back mergeable, and quarantine
/// drains carry the *global* shard id that poisoned the trace.
#[test]
fn control_messages_and_quarantine_attribution() {
    let endpoints = [uds_endpoint("c0"), uds_endpoint("c1")];
    let shards: Vec<ShardHandle> = endpoints
        .iter()
        .enumerate()
        .map(|(id, ep)| spawn_shard(ep, id, Arc::new(NoWireFaults)))
        .collect();
    let mut router =
        RouterClient::connect(RouterConfig::new(endpoints.to_vec())).expect("router connects");

    // A structurally corrupt batch: assembly fails at completion and
    // the trace is quarantined by whichever shard owns it.
    let traces = workload(8, 0);
    let poisoned_id = traces[0].trace_id();
    let expected_shard = owner_of(poisoned_id, 0..2);
    let mut clock = 0u64;
    for (i, trace) in traces.iter().enumerate() {
        let mut spans: Vec<Span> = trace.spans().to_vec();
        if i == 0 {
            corrupt_batch(&mut spans, Corruption::Cycle);
        }
        router.submit_batch(spans, clock);
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);

    // Publish: both shards re-publish and report version 2.
    let versions = router.publish_all();
    assert_eq!(versions, vec![Some(2), Some(2)]);

    // Metrics: every shard answers; merged intake covers the batch.
    let snapshots = router.fetch_metrics();
    assert_eq!(snapshots.iter().flatten().count(), 2);
    let mut merged = sleuth::serve::MetricsSnapshot::default();
    for snapshot in snapshots.iter().flatten() {
        merged.merge(snapshot);
    }
    let total_spans: u64 = traces.iter().map(|t| t.spans().len() as u64).sum();
    assert_eq!(merged.spans_submitted, total_spans);

    // Quarantine: the poisoned trace comes back attributed to the
    // global shard the router hashed it to.
    router.drain_quarantine();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut quarantined = Vec::new();
    while quarantined.is_empty() && Instant::now() < deadline {
        quarantined = router.poll_quarantined();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(quarantined.len(), 1, "poisoned trace not quarantined");
    assert_eq!(quarantined[0].trace_id, Some(poisoned_id));
    assert_eq!(quarantined[0].origin_shard, expected_shard);

    let report = router.shutdown();
    assert!(report.dead_peers.is_empty());
    for shard in shards {
        shard
            .handle
            .join()
            .expect("shard thread not poisoned")
            .expect("shard exits cleanly");
    }
}

/// No shard left: one endpoint is never bound and the live one is
/// usurped (its session gets a `Goodbye`) after it has answered the
/// first half of the traffic. Every span submitted after that is
/// counted unroutable, each trace without a real verdict gets exactly
/// one degraded verdict, and no trace gets both.
#[test]
fn dead_peer_yields_degraded_verdicts() {
    let traces = workload(40, 6);
    let (first, rest) = traces.split_at(traces.len() / 2);
    let reference = single_process_reference(first);
    assert!(!reference.is_empty(), "first half produced no verdicts");
    // Each trace is submitted twice: verdicts, real or degraded, must
    // still be one-per-trace, not one-per-batch.
    let twice = |ts: &[Trace]| 2 * ts.iter().map(|t| t.spans().len() as u64).sum::<u64>();

    let live = uds_endpoint("live");
    let _shard = spawn_shard(&live, 0, Arc::new(NoWireFaults));
    let mut config = RouterConfig::new(vec![live.clone(), uds_endpoint("dead")]);
    config.reconnect_attempts = 0; // first failure is final
    let mut router = RouterClient::connect(config).expect("one live peer is enough");
    assert_eq!(router.dead_peers(), vec![1]);

    let mut clock = 0u64;
    for trace in first.iter().flat_map(|t| [t, t]) {
        router.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);
    let mut verdicts = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while verdicts.len() < reference.len() {
        assert!(Instant::now() < deadline, "live shard never answered");
        verdicts.extend(router.poll_verdicts());
        std::thread::sleep(Duration::from_millis(5));
    }

    // The usurper's Goodbye leaves no shard live; traces the dead
    // session retained without a verdict degrade on failover. The live
    // shard's thread ends up parked on its accept loop, detached.
    let _usurper = WireStream::connect(&live).expect("usurper connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.dead_peers() != vec![0, 1] {
        assert!(Instant::now() < deadline, "router never saw the Goodbye");
        router.tick(clock);
        std::thread::sleep(Duration::from_millis(5));
    }
    for trace in rest.iter().flat_map(|t| [t, t]) {
        router.submit_batch(trace.spans().to_vec(), clock);
    }
    let report = router.shutdown();
    verdicts.extend(report.verdicts);

    assert_eq!(report.wire.spans_unroutable, twice(rest));
    assert_eq!(report.wire.spans_routed, twice(first));
    let (degraded, real): (Vec<Verdict>, Vec<Verdict>) =
        verdicts.into_iter().partition(|v| v.degraded);
    assert_eq!(verdict_set(&real), verdict_set(&reference));
    let ids = |vs: &[Verdict]| vs.iter().map(|v| v.trace_id).collect::<BTreeSet<u64>>();
    let (real_ids, degraded_ids) = (ids(&real), ids(&degraded));
    assert_eq!(degraded_ids.len(), degraded.len(), "one per trace");
    assert_eq!(report.wire.degraded_unroutable, degraded.len() as u64);
    assert!(real_ids.is_disjoint(&degraded_ids), "real and degraded");
    let all_ids: BTreeSet<u64> = traces.iter().map(|t| t.trace_id()).collect();
    assert_eq!(&real_ids | &degraded_ids, all_ids, "a trace got no verdict");
    assert!(degraded
        .iter()
        .all(|v| v.services.is_empty() && v.model_version.0 == 0));
}

// ---- Cluster self-healing: failover, supersede, process chaos ------

/// Failover keyed at connect time: traces a shard that is down from
/// the start would own are placed on the survivor instead of being
/// degraded — nothing is unroutable and the verdict set matches the
/// single-process reference exactly.
#[test]
fn failover_rescues_dead_shard_traces() {
    let traces = workload(40, 6);
    let reference = single_process_reference(&traces);

    let live = uds_endpoint("fo-live");
    let dead = uds_endpoint("fo-dead"); // never bound
    let shard = spawn_shard(&live, 0, Arc::new(NoWireFaults));

    let mut config = RouterConfig::new(vec![live, dead]);
    config.reconnect_attempts = 0; // first failure is final
    let mut router = RouterClient::connect(config).expect("one live peer is enough");
    assert_eq!(router.dead_peers(), vec![1]);

    let mut clock = 0u64;
    let mut rerouted = 0u64;
    for trace in &traces {
        if owner_of(trace.trace_id(), 0..2) == Some(1) {
            rerouted += 1;
        }
        let report = router.submit_batch(trace.spans().to_vec(), clock);
        assert_eq!(report.rejected, 0, "failover leaves nothing unroutable");
        clock += 1_000;
    }
    assert!(rerouted > 0, "workload never hit the dead shard");
    router.tick(clock + 2_000_000);
    let report = router.shutdown();

    assert_eq!(report.dead_peers, vec![1]);
    assert_eq!(report.wire.spans_unroutable, 0);
    assert_eq!(report.wire.degraded_unroutable, 0);
    let total: u64 = traces.iter().map(|t| t.spans().len() as u64).sum();
    assert_eq!(report.wire.spans_routed, total);
    assert!(report.verdicts.iter().all(|v| !v.degraded));
    assert_eq!(
        verdict_set(&report.verdicts),
        verdict_set(&reference),
        "failover changed verdict content"
    );
    assert_eq!(
        report.verdicts.len(),
        reference.len(),
        "ledger admitted duplicate verdicts"
    );

    shard
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
}

/// Accept-supersede plus buffered failover: a new connection to a busy
/// shard supersedes the serving session (the old socket gets a clean
/// `Goodbye`), the router treats the Goodbye as a peer death, and
/// every trace that shard retained is re-routed to the survivor —
/// verdicts still match the single-process reference with no
/// duplicates and no degradation.
#[test]
fn superseded_session_fails_over_buffered_traces() {
    let traces = workload(32, 5);
    let reference = single_process_reference(&traces);

    let endpoints = [uds_endpoint("ss-a"), uds_endpoint("ss-b")];
    let shard0 = spawn_shard(&endpoints[0], 0, Arc::new(NoWireFaults));
    let _shard1 = spawn_shard(&endpoints[1], 1, Arc::new(NoWireFaults));

    let mut router =
        RouterClient::connect(RouterConfig::new(endpoints.to_vec())).expect("router connects");

    // First half of the traffic lands on both shards, so shard 1
    // retains traces worth failing over.
    let (first, rest) = traces.split_at(traces.len() / 2);
    assert!(
        first
            .iter()
            .any(|t| owner_of(t.trace_id(), 0..2) == Some(1)),
        "first half never hit shard 1"
    );
    let mut clock = 0u64;
    for trace in first {
        router.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }

    // A usurper connects to shard 1: the serving session is handed a
    // clean Goodbye and the server switches to the new connection.
    let usurper = WireStream::connect(&endpoints[1]).expect("usurper connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        router.tick(clock);
        if router.dead_peers() == vec![1] {
            break;
        }
        assert!(Instant::now() < deadline, "router never saw the Goodbye");
        std::thread::sleep(Duration::from_millis(5));
    }

    for trace in rest {
        let report = router.submit_batch(trace.spans().to_vec(), clock);
        assert_eq!(report.rejected, 0, "survivor absorbs rerouted traffic");
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);
    let report = router.shutdown();
    drop(usurper);

    assert_eq!(report.dead_peers, vec![1]);
    assert!(report.wire.shard_failovers >= 1, "no failover recorded");
    assert!(report.wire.traces_failed_over >= 1);
    assert_eq!(report.wire.spans_unroutable, 0);
    assert!(report.verdicts.iter().all(|v| !v.degraded));
    assert_eq!(
        verdict_set(&report.verdicts),
        verdict_set(&reference),
        "supersede + failover changed verdict content"
    );
    assert_eq!(report.verdicts.len(), reference.len());

    shard0
        .handle
        .join()
        .expect("shard thread not poisoned")
        .expect("shard exits cleanly");
    // Shard 1 is parked on its accept loop waiting for a next
    // connection; its thread is detached rather than joined.
}

// ---- Real-process fleet ---------------------------------------------

/// Single-process reference matching the `sleuth-shardd` worker
/// config (`num_shards: 1`; the binary's default fit parameters equal
/// [`pipeline`]'s).
fn single_process_reference_shardd(traces: &[Trace]) -> Vec<Verdict> {
    let config = ServeConfig {
        num_shards: 1,
        idle_timeout_us: 1_000_000,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::start(pipeline(), config).expect("valid config");
    let mut clock = 0u64;
    for trace in traces {
        runtime.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }
    runtime.tick(clock + 2_000_000);
    let report = runtime.shutdown();
    assert_conservation(&report.metrics);
    report.verdicts
}

/// Send `sig` (e.g. "KILL", "STOP") to `pid` via the system `kill`.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .output(); // output(), not status(): swallow ESRCH noise
}

/// Real `sleuth-shardd` children, killed and reaped on drop so a
/// panicking test never leaks processes. Worker pids parsed from
/// `SHARDD_READY` lines are signalled too: under `--respawn` the
/// workers are grandchildren that would outlive their supervisor.
struct Fleet {
    children: Vec<Child>,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Fleet {
    fn new() -> Fleet {
        Fleet {
            children: Vec::new(),
            lines: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn spawn(&mut self, endpoint: &Endpoint, shard_id: usize, extra: &[&str]) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sleuth-shardd"))
            .arg("--addr")
            .arg(endpoint.to_string())
            .arg("--shard-id")
            .arg(shard_id.to_string())
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sleuth-shardd");
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::clone(&self.lines);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                lines.lock().expect("lines lock").push(line);
            }
        });
        self.children.push(child);
    }

    fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("lines lock").clone()
    }

    /// (shard id, pid) pairs announced by `SHARDD_READY` lines, in
    /// announcement order — which is fit-completion order, not shard
    /// order, since the fleet fits concurrently.
    fn ready(&self) -> Vec<(usize, u32)> {
        self.lines()
            .iter()
            .filter(|l| l.starts_with("SHARDD_READY"))
            .filter_map(|l| {
                let field = |key: &str| -> Option<u64> {
                    l.split_whitespace()
                        .find_map(|f| f.strip_prefix(key))
                        .and_then(|v| v.parse().ok())
                };
                Some((field("shard=")? as usize, field("pid=")? as u32))
            })
            .collect()
    }

    /// Latest announced pid for `shard` (a respawned worker announces
    /// again, superseding the dead pid).
    fn pid_of(&self, shard: usize) -> u32 {
        self.ready()
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map(|(_, pid)| *pid)
            .unwrap_or_else(|| panic!("shard {shard} never announced READY"))
    }

    fn ready_pids(&self) -> Vec<u32> {
        self.ready().into_iter().map(|(_, pid)| pid).collect()
    }

    fn wait_ready(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while self.ready_pids().len() < n {
            assert!(
                Instant::now() < deadline,
                "shardd fleet never became ready"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for pid in self.ready_pids() {
            signal(pid, "KILL");
        }
        while let Some(mut child) = self.children.pop() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The tentpole gate: under a seeded, budgeted *process* fault plan —
/// one `kill -9` and one `SIGSTOP` stall against three real
/// `sleuth-shardd` processes — the router's verdict set over healthy
/// traces is identical to the fault-free single-process run: no lost
/// episodes, no duplicates, zero degraded verdicts (survivors exist),
/// and merged span conservation stays exact.
#[test]
fn proc_fault_transparency_under_budgeted_process_chaos() {
    let traces = workload(48, 6);
    let reference = single_process_reference_shardd(&traces);

    let endpoints = [uds_endpoint("pf0"), uds_endpoint("pf1"), uds_endpoint("pf2")];
    let mut fleet = Fleet::new();
    for (id, ep) in endpoints.iter().enumerate() {
        fleet.spawn(ep, id, &[]);
    }
    fleet.wait_ready(3);
    let pids: Vec<u32> = (0..3).map(|s| fleet.pid_of(s)).collect();

    let injector = ProcInjector::new(ProcFaultPlan {
        seed: 42,
        num_shards: 3,
        kill_rate: 0.2,
        kill_budget: 1,
        stall_rate: 0.2,
        stall_budget: 1,
        ..ProcFaultPlan::default()
    });

    let mut config = RouterConfig::new(endpoints.to_vec());
    config.reconnect_attempts = 2; // faulted processes never come back
    config.heartbeat.interval = Duration::from_millis(25);
    config.heartbeat.miss_threshold = 2;
    let mut router = RouterClient::connect(config).expect("router connects");

    let mut faulted = BTreeSet::new();
    let mut clock = 0u64;
    for (step, trace) in traces.iter().enumerate() {
        match injector.step_fate(step as u64) {
            ProcFate::Kill(v) | ProcFate::RespawnKill(v) => {
                if faulted.insert(v) {
                    signal(pids[v], "KILL");
                }
            }
            ProcFate::Stall(v) => {
                if faulted.insert(v) {
                    signal(pids[v], "STOP");
                }
            }
            ProcFate::Spare => {}
        }
        clock += 1_000;
        let report = router.submit_batch(trace.spans().to_vec(), clock);
        assert_eq!(report.rejected, 0, "survivors exist; nothing is unroutable");
        // Real time between batches so the stall is detected by missed
        // heartbeats mid-run, not discovered at shutdown.
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(injector.injected_kills(), 1, "kill budget unspent");
    assert_eq!(injector.injected_stalls(), 1, "stall budget unspent");
    assert!(!faulted.is_empty() && faulted.len() <= 2);

    // Every faulted process must be declared dead before shutdown so
    // the final drain only waits on survivors.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        router.tick(clock);
        let dead: BTreeSet<usize> = router.dead_peers().into_iter().collect();
        if faulted.is_subset(&dead) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "faulted shards never declared dead"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    router.tick(clock + 2_000_000);
    let report = router.shutdown();

    assert!(report.wire.shard_failovers >= 1, "no failover recorded");
    assert!(
        report.wire.heartbeats_missed >= 1,
        "the stall never missed a heartbeat"
    );
    assert_eq!(report.wire.spans_unroutable, 0);
    assert!(
        report.verdicts.iter().all(|v| !v.degraded),
        "degraded verdict despite survivors"
    );
    assert_eq!(
        verdict_set(&report.verdicts),
        verdict_set(&reference),
        "verdicts diverge under process chaos"
    );
    assert_eq!(
        report.verdicts.len(),
        reference.len(),
        "duplicate verdicts slipped past the ledger"
    );
    assert_conservation(&report.metrics);
}

/// Satellite: session resume across a real process restart. Kill a
/// shardd worker after its verdicts are delivered; its `--respawn`
/// supervisor restarts it on the same endpoint; the router redials,
/// finds a fresh process (resume denied), resets the session, and
/// restages every retained trace. The respawned worker recomputes the
/// verdicts and the router's exactly-once ledger drops each replay as
/// a duplicate.
#[test]
fn respawned_shardd_replays_and_router_ledger_dedups() {
    let traces = workload(16, 3);
    let reference = single_process_reference_shardd(&traces);
    let expected = reference.len() as u64;
    assert!(expected > 0, "workload produced no verdicts");

    let endpoint = uds_endpoint("respawn");
    let mut fleet = Fleet::new();
    fleet.spawn(
        &endpoint,
        0,
        &["--respawn", "--max-respawns", "2", "--respawn-backoff-ms", "10"],
    );
    fleet.wait_ready(1);
    let worker = fleet.pid_of(0);

    let mut config = RouterConfig::new(vec![endpoint]);
    config.reconnect_attempts = 60; // outlast the worker's refit
    let mut router = RouterClient::connect(config).expect("router connects");

    let mut clock = 0u64;
    for trace in &traces {
        router.submit_batch(trace.spans().to_vec(), clock);
        clock += 1_000;
    }
    router.tick(clock + 2_000_000);

    // Wait until the router holds every verdict, so each one the
    // respawned worker recomputes must hit the ledger. (The worker's
    // `verdicts_emitted` counter can run ahead of the verdict frames
    // it has written.)
    let mut verdicts = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while (verdicts.len() as u64) < expected {
        assert!(Instant::now() < deadline, "router never got all verdicts");
        verdicts.extend(router.poll_verdicts());
        std::thread::sleep(Duration::from_millis(20));
    }

    // kill -9 the worker; the supervisor respawns it on the same addr.
    signal(worker, "KILL");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        router.tick(clock + 2_000_000);
        if fleet.ready_pids().len() >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never respawned the worker"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The fresh process denies resume, so the router resets the
    // session and restages its retained traces; a later tick
    // finalizes them and every recomputed verdict hits the ledger.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        router.tick(clock + 4_000_000);
        let emitted: u64 = router
            .fetch_metrics()
            .iter()
            .flatten()
            .map(|m| m.verdicts_emitted)
            .sum();
        if emitted >= expected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "respawned worker never recomputed verdicts"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let report = router.shutdown();
    assert!(report.wire.sessions_reset >= 1, "resume was never denied");
    assert_eq!(
        report.wire.verdicts_deduped, expected,
        "replayed verdicts not deduped"
    );
    verdicts.extend(report.verdicts);
    assert!(verdicts.iter().all(|v| !v.degraded));
    assert_eq!(verdict_set(&verdicts), verdict_set(&reference));
    assert_eq!(verdicts.len(), reference.len());
    assert!(fleet
        .lines()
        .iter()
        .any(|l| l.starts_with("SHARDD_RESPAWN")));

    // Clean shutdown propagates: worker exits 0, supervisor follows
    // and reports how many restarts it performed.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match fleet.children[0].try_wait().expect("wait supervisor") {
            Some(status) => {
                assert!(status.success(), "supervisor exited {status}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "supervisor never exited");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert!(fleet
        .lines()
        .iter()
        .any(|l| l.starts_with("SHARDD_SUPERVISOR") && l.contains("respawns_total=1")));
}
