//! The shard-server loop: one single-shard [`ServeRuntime`] behind a
//! socket listener.
//!
//! A `sleuth-shardd` process calls [`serve_shard`], which:
//!
//! * accepts connections on an acceptor thread parked in a blocking
//!   `accept` — one router at a time owns a shard, but a *newer*
//!   connection supersedes the current one (the old socket gets a
//!   clean `Goodbye`) instead of queueing behind a dead session's read
//!   timeouts; when serving ends, one self-connect wakes it to exit,
//! * performs the `Hello`/`HelloAck` version negotiation and session
//!   (re)attachment,
//! * runs a **reader loop** on the accept thread — decoding frames,
//!   feeding span batches and control messages into the runtime, and
//!   acking/nacking through the reliability layer — and a **writer
//!   thread** that blocks on the runtime's output wake
//!   ([`sleuth_serve::OutputHandle::wait`]), so a verdict or
//!   quarantined trace is streamed back as a sequenced data frame as
//!   soon as it exists; each wake drains everything pending, so a
//!   flood still coalesces. The wait is bounded by the ack-stall
//!   deadline ([`ShardServerConfig::resend_interval`]), so a lost
//!   frame is replayed even when no further output arrives,
//! * on `Shutdown`, stops, wakes and joins the writer *before* it
//!   drains the runtime — the writer takes output without the runtime
//!   lock, so this ordering is what keeps every verdict ahead of the
//!   final [`ShardFinal`] reply (metrics + store accounting), the last
//!   data frame of the session — then lingers until the router has
//!   acked everything.
//!
//! Sessions (sequence state, unacked frames) survive connection
//! drops: a router reconnecting with `resume: true` gets its session
//! back and both sides replay their unacked tails, which the
//! receive-side dedup makes idempotent. Quarantined traces leave the
//! process stamped with the *global* shard id
//! ([`ShardServerConfig::shard_id`]), not the runtime's internal
//! shard 0, so the router's aggregate attribution is meaningful.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sleuth_core::SleuthPipeline;
use sleuth_serve::inject::FaultInjector;
use sleuth_serve::{lock_or_recover, OutputHandle, ServeConfig, ServeRuntime};

use crate::codec::{FrameReader, FrameWriter, WireFaultInjector};
use crate::error::WireError;
use crate::frame::{
    Frame, Msg, ShardFinal, WireQuarantined, DEFAULT_MAX_FRAME_LEN, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use crate::metrics::WireMetrics;
use crate::session::{RecvChannel, RecvOutcome, SendChannel};
use crate::transport::{WireListener, WireStream};

/// Tuning for one shard server.
#[derive(Debug, Clone)]
pub struct ShardServerConfig {
    /// Global shard index this process serves (stamped onto outgoing
    /// quarantine entries).
    pub shard_id: usize,
    /// Runtime configuration. `num_shards` is forced to 1: sharding
    /// across traces is the *router's* job in a multi-process
    /// topology.
    pub serve: ServeConfig,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// OS read timeout on the connection (bounds how stale the
    /// reader's liveness checks can get).
    pub read_timeout: Duration,
    /// How long the oldest unacked frame may go without ack progress
    /// before the writer replays the unacked tail (heals dropped
    /// verdict frames). Also bounds how long the writer blocks.
    pub resend_interval: Duration,
    /// Bound on unacked and reorder buffers.
    pub session_cap: usize,
    /// How long to wait for the `Hello` on a fresh connection before
    /// dropping it.
    pub handshake_timeout: Duration,
}

impl ShardServerConfig {
    /// Defaults around a given runtime config and shard id.
    pub fn new(shard_id: usize, serve: ServeConfig) -> Self {
        ShardServerConfig {
            shard_id,
            serve,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(50),
            resend_interval: Duration::from_millis(100),
            session_cap: 4096,
            handshake_timeout: Duration::from_secs(10),
        }
    }

    /// Validate with typed errors before any listener work begins (the
    /// builder-validation pattern shared with
    /// [`crate::RouterConfig::validate`]).
    pub fn validate(&self) -> Result<(), WireError> {
        if self.session_cap == 0 {
            return Err(WireError::Config("session_cap must be >= 1".into()));
        }
        if self.resend_interval.is_zero() {
            return Err(WireError::Config("resend_interval must be > 0".into()));
        }
        if self.read_timeout.is_zero() {
            return Err(WireError::Config("read_timeout must be > 0".into()));
        }
        if self.handshake_timeout.is_zero() {
            return Err(WireError::Config("handshake_timeout must be > 0".into()));
        }
        Ok(())
    }
}

/// Reliable-delivery state that outlives individual connections.
struct Session {
    id: u64,
    send: Arc<Mutex<SendChannel>>,
    recv: RecvChannel,
}

/// Why a connection handler returned.
enum ConnEnd {
    /// Peer went away; keep the session and accept again.
    Disconnected,
    /// Shutdown complete and fully acked.
    Finished(Box<ShardFinal>),
    /// A newer connection arrived while this one was being served; it
    /// takes over (the old peer got a clean `Goodbye`).
    Superseded(WireStream),
}

/// What the acceptor thread hands to the serving loop.
enum AcceptEvent {
    /// A new connection.
    Conn(WireStream),
    /// The listener failed; serving cannot continue.
    Err(io::Error),
}

/// Stage messages into the session's send channel, oldest first.
fn stage_all(
    send: &Mutex<SendChannel>,
    msgs: impl IntoIterator<Item = Msg>,
) -> Result<Vec<Frame>, WireError> {
    let mut send = lock_or_recover(send, None);
    msgs.into_iter().map(|msg| send.stage(msg)).collect()
}

/// Write staged frames in order, stopping at the first failure.
fn send_frames(writer: &Mutex<FrameWriter<WireStream>>, frames: &[Frame]) -> Result<(), WireError> {
    let mut w = lock_or_recover(writer, None);
    frames.iter().try_for_each(|frame| w.send(frame))
}

/// Stage every message, then write them. Staging comes first so that a
/// write failure part-way leaves the rest staged for replay on resume
/// instead of dropped.
fn stage_and_send(
    send: &Mutex<SendChannel>,
    writer: &Mutex<FrameWriter<WireStream>>,
    msgs: impl IntoIterator<Item = Msg>,
) -> Result<(), WireError> {
    send_frames(writer, &stage_all(send, msgs)?)
}

/// Replay every unacked frame (reconnect resume or ack stall).
fn replay_unacked(
    send: &Mutex<SendChannel>,
    writer: &Mutex<FrameWriter<WireStream>>,
    metrics: &WireMetrics,
) -> Result<(), WireError> {
    let frames = lock_or_recover(send, None).unacked_frames();
    let mut w = lock_or_recover(writer, None);
    for frame in &frames {
        w.send(frame)?;
        metrics.frames_resent.inc();
    }
    w.flush_held()
}

/// Serve one shard until a router drives it through `Shutdown`.
///
/// Blocks the calling thread. Returns the final shard state after a
/// complete drain, or the first unrecoverable listener/config error.
/// Connection failures are *not* unrecoverable: the session is kept
/// and the next accepted connection may resume it.
pub fn serve_shard(
    listener: &WireListener,
    pipeline: Arc<SleuthPipeline>,
    config: ShardServerConfig,
    runtime_faults: Arc<dyn FaultInjector>,
    wire_faults: Arc<dyn WireFaultInjector>,
    metrics: Arc<WireMetrics>,
) -> Result<ShardFinal, WireError> {
    config.validate()?;
    let mut serve_cfg = config.serve.clone();
    serve_cfg.num_shards = 1;
    let runtime = ServeRuntime::start_with_injector(pipeline.clone(), serve_cfg, runtime_faults)
        .map_err(|e| WireError::Config(e.to_string()))?;
    let output = runtime.output();
    let runtime = Arc::new(Mutex::new(Some(runtime)));
    let mut session: Option<Session> = None;
    let mut done: Option<Box<ShardFinal>> = None;

    // An acceptor thread feeds connections through a channel so the
    // reader loop can notice a *newer* connection while the old
    // session is still draining: accept supersedes instead of queueing
    // behind a dead socket's read timeouts.
    let stop_accept = AtomicBool::new(false);
    let (conn_tx, conn_rx) = std::sync::mpsc::channel::<AcceptEvent>();
    let result = thread::scope(|scope| {
        let acceptor = scope.spawn(|| loop {
            let accepted = listener.accept();
            if stop_accept.load(Ordering::Relaxed) {
                return;
            }
            match accepted {
                Ok(stream) => {
                    if conn_tx.send(AcceptEvent::Conn(stream)).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = conn_tx.send(AcceptEvent::Err(e));
                    return;
                }
            }
        });
        let out = 'serve: loop {
            let mut next = match conn_rx.recv() {
                Ok(AcceptEvent::Conn(stream)) => stream,
                Ok(AcceptEvent::Err(e)) => break 'serve Err(WireError::from(e)),
                Err(_) => {
                    break 'serve Err(WireError::Config(
                        "shard listener accept loop exited".into(),
                    ))
                }
            };
            loop {
                match handle_conn(
                    next,
                    &conn_rx,
                    &config,
                    &pipeline,
                    &runtime,
                    &output,
                    &mut session,
                    &mut done,
                    &wire_faults,
                    &metrics,
                ) {
                    ConnEnd::Finished(final_state) => break 'serve Ok(*final_state),
                    ConnEnd::Disconnected => break,
                    ConnEnd::Superseded(stream) => next = stream,
                }
            }
        };
        // The acceptor is parked in `accept`: one self-connect wakes
        // it to see the stop flag (moot if the listener already failed
        // and the acceptor returned).
        stop_accept.store(true, Ordering::Relaxed);
        let _ = listener
            .local_endpoint()
            .and_then(|ep| WireStream::connect(&ep));
        let _ = acceptor.join();
        out
    });
    result
}

#[allow(clippy::too_many_arguments)]
fn handle_conn(
    stream: WireStream,
    conn_rx: &Receiver<AcceptEvent>,
    config: &ShardServerConfig,
    pipeline: &Arc<SleuthPipeline>,
    runtime: &Arc<Mutex<Option<ServeRuntime>>>,
    output: &OutputHandle,
    session: &mut Option<Session>,
    done: &mut Option<Box<ShardFinal>>,
    wire_faults: &Arc<dyn WireFaultInjector>,
    metrics: &Arc<WireMetrics>,
) -> ConnEnd {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err() || stream.set_nodelay().is_err()
    {
        return ConnEnd::Disconnected;
    }
    let Ok(read_half) = stream.try_clone() else {
        return ConnEnd::Disconnected;
    };
    let mut reader = FrameReader::new(read_half, config.max_frame_len, Arc::clone(metrics));
    let writer = FrameWriter::new(
        stream,
        PROTOCOL_VERSION,
        config.shard_id,
        Arc::clone(wire_faults),
        Arc::clone(metrics),
    );
    let writer = Arc::new(Mutex::new(writer));

    // ---- Handshake --------------------------------------------------
    let deadline = Instant::now() + config.handshake_timeout;
    let hello = loop {
        match reader.read_frame() {
            Ok(Frame::Hello {
                min_version,
                max_version,
                session_id,
                resume,
            }) => break (min_version, max_version, session_id, resume),
            Ok(_) => {
                let _ = lock_or_recover(&writer, None).send(&Frame::Error {
                    code: WireError::HandshakeRequired.label().to_string(),
                    detail: "expected Hello".to_string(),
                });
                return ConnEnd::Disconnected;
            }
            // Recoverable errors (timeouts, bad checksums) keep the
            // connection — but only until the handshake deadline, or a
            // client that never sends a valid Hello parks the accept
            // loop forever.
            Err(WireError::Timeout)
            | Err(WireError::ChecksumMismatch { .. })
            | Err(WireError::UnknownFrameType(_))
                if Instant::now() < deadline =>
            {
                continue
            }
            Err(_) => return ConnEnd::Disconnected,
        }
    };
    let (their_min, their_max, session_id, resume) = hello;
    if their_min > PROTOCOL_VERSION || their_max < MIN_PROTOCOL_VERSION {
        let _ = lock_or_recover(&writer, None).send(&Frame::Error {
            code: "unsupported_version".to_string(),
            detail: format!("peer speaks {their_min}..={their_max}, server {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"),
        });
        return ConnEnd::Disconnected;
    }
    let version = their_max.min(PROTOCOL_VERSION);
    let resumed = resume && session.as_ref().map(|s| s.id) == Some(session_id);
    if !resumed {
        *session = Some(Session {
            id: session_id,
            send: Arc::new(Mutex::new(SendChannel::new(config.session_cap))),
            recv: RecvChannel::new(config.session_cap),
        });
    }
    lock_or_recover(&writer, None).set_version(version);
    if lock_or_recover(&writer, None)
        .send(&Frame::HelloAck { version, resumed })
        .is_err()
    {
        return ConnEnd::Disconnected;
    }
    let send = Arc::clone(&session.as_ref().expect("session installed above").send);
    if resumed && replay_unacked(&send, &writer, metrics).is_err() {
        return ConnEnd::Disconnected;
    }

    // ---- Writer thread: stream runtime output -----------------------
    let conn_failed = Arc::new(AtomicBool::new(false));
    let mut out_writer = OutputWriter::spawn(
        output.clone(),
        send,
        Arc::clone(&writer),
        Arc::clone(&conn_failed),
        Arc::clone(metrics),
        config,
    );

    // ---- Reader loop ------------------------------------------------
    let end = reader_loop(
        &mut reader,
        conn_rx,
        config,
        pipeline,
        runtime,
        session.as_mut().expect("session installed above"),
        done,
        &writer,
        &conn_failed,
        metrics,
        &mut out_writer,
    );
    out_writer.stop();
    end
}

/// A connection's writer thread: streams the runtime's verdicts and
/// quarantined traces as sequenced data frames, and replays the
/// unacked tail on an ack stall.
struct OutputWriter {
    stop: Arc<AtomicBool>,
    output: OutputHandle,
    join: Option<JoinHandle<()>>,
}

impl OutputWriter {
    fn spawn(
        output: OutputHandle,
        send: Arc<Mutex<SendChannel>>,
        writer: Arc<Mutex<FrameWriter<WireStream>>>,
        conn_failed: Arc<AtomicBool>,
        metrics: Arc<WireMetrics>,
        config: &ShardServerConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (shard_id, resend_interval) = (config.shard_id, config.resend_interval);
        let join = thread::spawn({
            let stop = Arc::clone(&stop);
            let output = output.clone();
            move || {
                let run = write_output(
                    output,
                    &stop,
                    &send,
                    &writer,
                    &metrics,
                    shard_id,
                    resend_interval,
                );
                if run.is_err() {
                    conn_failed.store(true, Ordering::Relaxed);
                }
            }
        });
        OutputWriter {
            stop,
            output,
            join: Some(join),
        }
    }

    /// Stop the writer, wake it, and wait for it to exit: once this
    /// returns, nothing the writer drained is still unstaged.
    /// Idempotent.
    fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.output.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The writer thread's loop: block on the runtime's output wake, stage
/// and send everything pending, and watch for an ack stall.
fn write_output(
    mut output: OutputHandle,
    stop: &AtomicBool,
    send: &Mutex<SendChannel>,
    writer: &Mutex<FrameWriter<WireStream>>,
    metrics: &WireMetrics,
    shard_id: usize,
    resend_interval: Duration,
) -> Result<(), WireError> {
    // The oldest unacked frame standing still for `resend_interval`
    // means the frame (or its ack) was lost: replay the tail. The wait
    // never outlasts that deadline, so a lost frame is replayed even
    // when no further output arrives.
    let mut stalled_on: Option<u64> = None;
    let mut since = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let timeout = match stalled_on {
            Some(_) => resend_interval.saturating_sub(since.elapsed()),
            None => resend_interval,
        };
        let (verdicts, quarantined) = output.wait(timeout);
        let quarantined = quarantined
            .iter()
            .map(|q| Msg::Quarantined(WireQuarantined::from_entry(q, shard_id)));
        stage_and_send(
            send,
            writer,
            verdicts.into_iter().map(Msg::Verdict).chain(quarantined),
        )?;
        let first = lock_or_recover(send, None).first_unacked();
        if first != stalled_on {
            stalled_on = first;
            since = Instant::now();
        } else if first.is_some() && since.elapsed() >= resend_interval {
            replay_unacked(send, writer, metrics)?;
            since = Instant::now();
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    reader: &mut FrameReader<WireStream>,
    conn_rx: &Receiver<AcceptEvent>,
    config: &ShardServerConfig,
    pipeline: &Arc<SleuthPipeline>,
    runtime: &Arc<Mutex<Option<ServeRuntime>>>,
    session: &mut Session,
    done: &mut Option<Box<ShardFinal>>,
    writer: &Arc<Mutex<FrameWriter<WireStream>>>,
    conn_failed: &AtomicBool,
    metrics: &Arc<WireMetrics>,
    out_writer: &mut OutputWriter,
) -> ConnEnd {
    loop {
        // Checked on *every* iteration (not just read timeouts), so a
        // steady stream of traffic on a soon-to-be-dead connection
        // cannot starve a replacement connection waiting in the queue.
        match conn_rx.try_recv() {
            Ok(AcceptEvent::Conn(new)) => {
                let mut w = lock_or_recover(writer, None);
                let _ = w.send(&Frame::Goodbye {
                    reason: "superseded".to_string(),
                });
                let _ = w.flush_held();
                drop(w);
                return ConnEnd::Superseded(new);
            }
            // A listener failure ends the acceptor; the serving loop
            // surfaces it once this connection finishes.
            Ok(AcceptEvent::Err(_)) => {}
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {}
        }
        if conn_failed.load(Ordering::Relaxed) {
            return ConnEnd::Disconnected;
        }
        if let Some(final_state) = done.as_ref() {
            if lock_or_recover(&session.send, None).unacked_len() == 0 {
                return ConnEnd::Finished(final_state.clone());
            }
        }
        let frame = match reader.read_frame() {
            Ok(frame) => frame,
            Err(WireError::Timeout) => {
                // Post-shutdown the writer thread is gone, so the
                // reader owns resend liveness for the final frames.
                if done.is_some() && replay_unacked(&session.send, writer, metrics).is_err() {
                    return ConnEnd::Disconnected;
                }
                continue;
            }
            Err(e) if !e.is_stream_fatal() => continue,
            Err(_) => return ConnEnd::Disconnected,
        };
        match frame {
            Frame::Ack { upto } => {
                lock_or_recover(&session.send, None).ack(upto);
            }
            Frame::Nack { expected } => {
                let frames = lock_or_recover(&session.send, None).resend_from(expected);
                let mut w = lock_or_recover(writer, None);
                for f in &frames {
                    if w.send(f).is_err() {
                        return ConnEnd::Disconnected;
                    }
                    metrics.frames_resent.inc();
                }
            }
            Frame::Data { seq, msg } => match session.recv.accept(seq, msg) {
                RecvOutcome::Deliver(msgs) => {
                    // The session now counts these messages received,
                    // so a resumed connection never sees them again:
                    // apply all of them — the shutdown drain included —
                    // before a failed write ends the connection. Their
                    // replies stay staged and replay on resume.
                    let mut shutdown_requested = false;
                    let mut failed = false;
                    for msg in msgs {
                        match apply_msg(msg, config, pipeline, runtime, &session.send, writer) {
                            Ok(shutdown) => shutdown_requested |= shutdown,
                            Err(_) => failed = true,
                        }
                    }
                    failed |= send_ack(&session.recv, writer, metrics).is_err();
                    if shutdown_requested && done.is_none() {
                        // Join the writer *before* draining: it takes
                        // output without the runtime lock, so a live
                        // writer could stage drained verdicts after
                        // `ShutdownReply`. Then drain the runtime,
                        // stream the residue, and reply with the final
                        // state — the last data frame of the session.
                        out_writer.stop();
                        let report = {
                            let mut guard = lock_or_recover(runtime, None);
                            guard.take().map(|rt| rt.shutdown())
                        };
                        let Some(report) = report else {
                            return ConnEnd::Disconnected;
                        };
                        let final_state = Box::new(ShardFinal {
                            trace_count: report.store.trace_count() as u64,
                            span_count: report.store.span_count() as u64,
                            metrics: report.metrics.clone(),
                        });
                        let mut tail: Vec<Msg> = Vec::new();
                        for v in report.verdicts {
                            tail.push(Msg::Verdict(v));
                        }
                        for q in report.quarantined {
                            tail.push(Msg::Quarantined(WireQuarantined::from_entry(
                                &q,
                                config.shard_id,
                            )));
                        }
                        tail.push(Msg::ShutdownReply(final_state.clone()));
                        *done = Some(final_state);
                        // Staging must succeed; a write failure is
                        // healed by resume + replay on reconnect.
                        let Ok(frames) = stage_all(&session.send, tail) else {
                            return ConnEnd::Disconnected;
                        };
                        let _ = send_frames(writer, &frames);
                    }
                    if failed {
                        return ConnEnd::Disconnected;
                    }
                }
                RecvOutcome::Duplicate => {
                    metrics.duplicates_dropped.inc();
                    // Once drained, the router may close as soon as it
                    // holds the final state: the acks it sent before
                    // closing are still buffered behind this duplicate,
                    // so a failed write must not end the read.
                    if send_ack(&session.recv, writer, metrics).is_err() && done.is_none() {
                        return ConnEnd::Disconnected;
                    }
                }
                RecvOutcome::Gap { expected, .. } => {
                    metrics.nacks_sent.inc();
                    if lock_or_recover(writer, None)
                        .send(&Frame::Nack { expected })
                        .is_err()
                    {
                        return ConnEnd::Disconnected;
                    }
                }
            },
            Frame::Heartbeat { nonce } => {
                // Liveness probe: answer immediately, even while
                // draining a shutdown tail, so a busy-but-healthy
                // shard never reads as dead.
                let mut w = lock_or_recover(writer, None);
                if w.send(&Frame::HeartbeatAck { nonce })
                    .and_then(|_| w.flush_held())
                    .is_err()
                {
                    return ConnEnd::Disconnected;
                }
            }
            Frame::HeartbeatAck { .. } => {}
            // The router is leaving this connection cleanly; keep the
            // session for whoever dials next.
            Frame::Goodbye { .. } => return ConnEnd::Disconnected,
            // A second Hello mid-session or stray handshake frames are
            // protocol noise; ignore rather than kill a healthy link.
            Frame::Hello { .. } | Frame::HelloAck { .. } | Frame::Error { .. } => {}
        }
    }
}

fn send_ack(
    recv: &RecvChannel,
    writer: &Arc<Mutex<FrameWriter<WireStream>>>,
    metrics: &WireMetrics,
) -> Result<(), WireError> {
    if let Some(upto) = recv.ack_level() {
        metrics.acks_sent.inc();
        let mut w = lock_or_recover(writer, None);
        w.send(&Frame::Ack { upto })?;
        w.flush_held()?;
    }
    Ok(())
}

/// Apply one delivered message to the runtime. Returns `Ok(true)` when
/// the message was `Shutdown`.
fn apply_msg(
    msg: Msg,
    config: &ShardServerConfig,
    pipeline: &Arc<SleuthPipeline>,
    runtime: &Arc<Mutex<Option<ServeRuntime>>>,
    send: &Arc<Mutex<SendChannel>>,
    writer: &Arc<Mutex<FrameWriter<WireStream>>>,
) -> Result<bool, WireError> {
    let guard = lock_or_recover(runtime, None);
    let Some(rt) = guard.as_ref() else {
        // Post-shutdown only duplicates should arrive (and dedup
        // catches those); anything else is ignored.
        return Ok(matches!(msg, Msg::Shutdown));
    };
    match msg {
        Msg::SpanBatch { now_us, spans } => {
            rt.submit_batch(spans, now_us);
        }
        Msg::Tick { now_us } => rt.tick(now_us),
        Msg::Publish | Msg::RefreshBaselines => {
            // Republish the held pipeline: a hot-swap drill that bumps
            // the version and exercises the registry drain.
            let version = rt.publish(Arc::clone(pipeline));
            drop(guard);
            stage_and_send(send, writer, [Msg::PublishReply { version: version.0 }])?;
        }
        Msg::MetricsRequest => {
            let snapshot = rt.metrics().snapshot();
            drop(guard);
            stage_and_send(send, writer, [Msg::MetricsReply(Box::new(snapshot))])?;
        }
        Msg::QuarantineDrain => {
            let entries = rt.poll_quarantined();
            drop(guard);
            let msgs = entries
                .iter()
                .map(|q| Msg::Quarantined(WireQuarantined::from_entry(q, config.shard_id)));
            stage_and_send(send, writer, msgs)?;
        }
        Msg::Shutdown => return Ok(true),
        // Shard-bound streams never carry these; ignore.
        Msg::Verdict(_)
        | Msg::Quarantined(_)
        | Msg::MetricsReply(_)
        | Msg::PublishReply { .. }
        | Msg::ShutdownReply(_) => {}
    }
    Ok(false)
}
