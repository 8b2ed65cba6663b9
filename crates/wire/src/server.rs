//! The shard-server loop: one single-shard [`ServeRuntime`] behind a
//! socket listener.
//!
//! A `sleuth-shardd` process calls [`serve_shard`], which:
//!
//! * accepts connections through a polling acceptor thread — one
//!   router at a time owns a shard, but a *newer* connection
//!   supersedes the current one (the old socket gets a clean
//!   `Goodbye`) instead of queueing behind a dead session's read
//!   timeouts,
//! * performs the `Hello`/`HelloAck` version negotiation and session
//!   (re)attachment,
//! * runs a **reader loop** on the accept thread — decoding frames,
//!   feeding span batches and control messages into the runtime, and
//!   acking/nacking through the reliability layer — and a **writer
//!   thread** that polls the runtime for verdicts and quarantined
//!   traces at a fixed cadence and streams them back as sequenced
//!   data frames,
//! * on `Shutdown`, drains the runtime and replies with a final
//!   [`ShardFinal`] (metrics + store accounting), then lingers until
//!   the router has acked everything.
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
use std::thread;
use std::time::{Duration, Instant};

use sleuth_core::SleuthPipeline;
use sleuth_serve::inject::FaultInjector;
use sleuth_serve::{lock_or_recover, ServeConfig, ServeRuntime};

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
    /// Cadence at which the writer thread polls the runtime for
    /// verdicts and quarantined traces.
    pub poll_interval: Duration,
    /// OS read timeout on the connection (bounds how stale the
    /// reader's liveness checks can get).
    pub read_timeout: Duration,
    /// Writer polls without ack progress before the unacked tail is
    /// replayed (heals dropped verdict frames).
    pub resend_stall_polls: u32,
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
            poll_interval: Duration::from_millis(2),
            read_timeout: Duration::from_millis(50),
            resend_stall_polls: 50,
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
        if self.poll_interval.is_zero() {
            return Err(WireError::Config("poll_interval must be > 0".into()));
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
    /// A new connection, already switched back to blocking mode.
    Conn(WireStream),
    /// The listener failed; serving cannot continue.
    Err(io::Error),
}

/// Stage a message into the session's send channel and write it.
fn stage_and_send(
    send: &Mutex<SendChannel>,
    writer: &Mutex<FrameWriter<WireStream>>,
    msg: Msg,
) -> Result<(), WireError> {
    let frame = lock_or_recover(send, None).stage(msg)?;
    lock_or_recover(writer, None).send(&frame)
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
    let runtime = Arc::new(Mutex::new(Some(runtime)));
    let mut session: Option<Session> = None;
    let mut done: Option<Box<ShardFinal>> = None;

    // A polling acceptor thread feeds connections through a channel so
    // the reader loop can notice a *newer* connection while the old
    // session is still draining: accept supersedes instead of queueing
    // behind a dead socket's read timeouts.
    listener.set_nonblocking(true)?;
    let stop_accept = AtomicBool::new(false);
    let (conn_tx, conn_rx) = std::sync::mpsc::channel::<AcceptEvent>();
    let accept_poll = config.poll_interval;
    let result = thread::scope(|scope| {
        let acceptor = scope.spawn(|| loop {
            if stop_accept.load(Ordering::Relaxed) {
                return;
            }
            match listener.accept() {
                Ok(stream) => {
                    // Accepted sockets can inherit the listener's
                    // non-blocking mode; the codec needs blocking.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    if conn_tx.send(AcceptEvent::Conn(stream)).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(accept_poll),
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
        stop_accept.store(true, Ordering::Relaxed);
        let _ = acceptor.join();
        out
    });
    let _ = listener.set_nonblocking(false);
    result
}

#[allow(clippy::too_many_arguments)]
fn handle_conn(
    stream: WireStream,
    conn_rx: &Receiver<AcceptEvent>,
    config: &ShardServerConfig,
    pipeline: &Arc<SleuthPipeline>,
    runtime: &Arc<Mutex<Option<ServeRuntime>>>,
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

    // ---- Writer thread: poll runtime outputs ------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let conn_failed = Arc::new(AtomicBool::new(false));
    let writer_handle = {
        let stop = Arc::clone(&stop);
        let conn_failed = Arc::clone(&conn_failed);
        let runtime = Arc::clone(runtime);
        let send = Arc::clone(&send);
        let writer = Arc::clone(&writer);
        let metrics = Arc::clone(metrics);
        let poll_interval = config.poll_interval;
        let resend_stall_polls = config.resend_stall_polls;
        let shard_id = config.shard_id;
        thread::spawn(move || {
            let mut stalled_on: Option<u64> = None;
            let mut stall_polls: u32 = 0;
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(poll_interval);
                let (verdicts, quarantined) = {
                    let guard = lock_or_recover(&runtime, None);
                    match guard.as_ref() {
                        Some(rt) => (rt.poll_verdicts(), rt.poll_quarantined()),
                        None => (Vec::new(), Vec::new()),
                    }
                };
                let mut failed = false;
                for v in verdicts {
                    if stage_and_send(&send, &writer, Msg::Verdict(v)).is_err() {
                        failed = true;
                        break;
                    }
                }
                for q in quarantined {
                    if failed {
                        break;
                    }
                    let wq = WireQuarantined::from_entry(&q, shard_id);
                    if stage_and_send(&send, &writer, Msg::Quarantined(wq)).is_err() {
                        failed = true;
                    }
                }
                // Ack-stall detection: the oldest unacked frame not
                // moving for `resend_stall_polls` polls means the frame
                // (or its ack) was lost — replay the tail.
                if !failed {
                    let first = lock_or_recover(&send, None).first_unacked();
                    if first.is_some() && first == stalled_on {
                        stall_polls += 1;
                        if stall_polls >= resend_stall_polls {
                            stall_polls = 0;
                            failed = replay_unacked(&send, &writer, &metrics).is_err();
                        }
                    } else {
                        stalled_on = first;
                        stall_polls = 0;
                    }
                }
                if failed {
                    conn_failed.store(true, Ordering::Relaxed);
                    break;
                }
            }
        })
    };

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
        &stop,
    );
    stop.store(true, Ordering::Relaxed);
    let _ = writer_handle.join();
    end
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
    stop: &AtomicBool,
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
                        // Stop polling, drain the runtime, stream the
                        // residue, and reply with the final state.
                        stop.store(true, Ordering::Relaxed);
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
                        for msg in tail {
                            // Staging must succeed; a write failure is
                            // healed by resume + replay on reconnect.
                            let frame = match lock_or_recover(&session.send, None).stage(msg) {
                                Ok(frame) => frame,
                                Err(_) => return ConnEnd::Disconnected,
                            };
                            let _ = lock_or_recover(writer, None).send(&frame);
                        }
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
            stage_and_send(send, writer, Msg::PublishReply { version: version.0 })?;
        }
        Msg::MetricsRequest => {
            let snapshot = rt.metrics().snapshot();
            drop(guard);
            stage_and_send(send, writer, Msg::MetricsReply(Box::new(snapshot)))?;
        }
        Msg::QuarantineDrain => {
            let entries = rt.poll_quarantined();
            drop(guard);
            for q in entries {
                let wq = WireQuarantined::from_entry(&q, config.shard_id);
                stage_and_send(send, writer, Msg::Quarantined(wq))?;
            }
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
