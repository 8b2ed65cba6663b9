//! The front-end router: places span batches on shard servers and
//! merges their verdict, quarantine, and metric streams.
//!
//! [`RouterClient`] owns one connection (and one reliable-delivery
//! session) per shard endpoint. A trace goes to [`owner_of`] over the
//! live peers — the same rendezvous hashing the single-process
//! runtime places with — so whole traces always land on one shard,
//! and a peer's death moves only the traces it owned while survivors
//! keep theirs.
//!
//! Threading model: all writes and all protocol decisions happen on
//! the caller's thread; one background reader thread per peer only
//! decodes frames and forwards them (tagged with a connection
//! generation) into an event queue, which the caller drains on every
//! API call ([`RouterClient::poll_verdicts`] etc.). Peer death is
//! healed with bounded, backed-off reconnects that resume the
//! session and replay the unacked tail.
//!
//! Self-healing (see [`crate::health`]): every live peer is probed
//! with heartbeats on a configurable interval, so a stalled process
//! (SIGSTOP: socket open, nothing moving) is detected in bounded time
//! instead of never. A peer that misses its threshold — or exhausts
//! reconnects — is declared dead and its *retained traces fail over*:
//! the router keeps a bounded per-peer buffer of every trace it
//! routed, and re-places the dead shard's buffer over the survivors
//! (only the dead shard's keys move). A shard that comes back as a
//! fresh process gets its session reset and its buffer replayed. Both
//! replays can re-produce verdicts the dead incarnation already
//! delivered; the bounded per-trace [`VerdictLedger`] drops those
//! duplicates, making delivery exactly-once across restarts. Only when
//! *no* shard is live does a trace get one synthetic degraded
//! [`Verdict`] — recorded in the same ledger, so it never also gets a
//! real one — and downstream consumers see an explicit signal instead
//! of silence.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sleuth_serve::{owner_of, Backoff, MetricsSnapshot, ModelVersion, QuarantinedTrace, Verdict};
use sleuth_trace::Span;

use crate::codec::{FrameReader, FrameWriter, NoWireFaults, WireFaultInjector};
use crate::error::WireError;
use crate::frame::{
    Frame, Msg, ShardFinal, DEFAULT_MAX_FRAME_LEN, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::health::{HeartbeatConfig, HeartbeatState, PeerHealth, VerdictLedger};
use crate::metrics::{WireMetrics, WireMetricsSnapshot};
use crate::session::{RecvChannel, RecvOutcome, SendChannel};
use crate::transport::{Endpoint, WireStream};

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// One endpoint per global shard, in shard order.
    pub endpoints: Vec<Endpoint>,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// OS read timeout for reader threads.
    pub read_timeout: Duration,
    /// Reconnect attempts per incident before a peer is declared
    /// dead (0 = never reconnect: first failure is fatal for the
    /// peer).
    pub reconnect_attempts: u32,
    /// Base reconnect backoff (doubles per attempt).
    pub reconnect_backoff: Duration,
    /// Backoff ceiling.
    pub reconnect_backoff_max: Duration,
    /// Bound on unacked and reorder buffers.
    pub session_cap: usize,
    /// Deadline for blocking request/reply calls (metrics fetch,
    /// publish, shutdown drain).
    pub response_timeout: Duration,
    /// Resend cadence while waiting inside a blocking call.
    pub resend_interval: Duration,
    /// Seed for session ids (distinct per peer; deterministic for
    /// reproducible tests).
    pub session_seed: u64,
    /// Heartbeat failure detection (probe interval + miss threshold).
    pub heartbeat: HeartbeatConfig,
    /// Per-peer bound on traces retained for failover/restage replay
    /// (oldest evicted first).
    pub failover_buffer_cap: usize,
    /// Bound on the exactly-once verdict ledger (trace ids with an
    /// accepted verdict; oldest evicted first).
    pub ledger_cap: usize,
}

impl RouterConfig {
    /// Defaults for a set of endpoints.
    pub fn new(endpoints: Vec<Endpoint>) -> Self {
        RouterConfig {
            endpoints,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(50),
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(10),
            reconnect_backoff_max: Duration::from_millis(500),
            session_cap: 4096,
            response_timeout: Duration::from_secs(30),
            resend_interval: Duration::from_millis(100),
            session_seed: 0x5eed,
            heartbeat: HeartbeatConfig::default(),
            failover_buffer_cap: 4096,
            ledger_cap: 65536,
        }
    }

    /// Validate the configuration with typed errors before any socket
    /// is dialed (the builder-validation pattern: a config that could
    /// never detect failures is rejected up front).
    pub fn validate(&self) -> Result<(), WireError> {
        if self.endpoints.is_empty() {
            return Err(WireError::Config(
                "router needs at least one endpoint".into(),
            ));
        }
        if self.session_cap == 0 {
            return Err(WireError::Config("session_cap must be >= 1".into()));
        }
        if self.failover_buffer_cap == 0 {
            return Err(WireError::Config("failover_buffer_cap must be >= 1".into()));
        }
        if self.ledger_cap == 0 {
            return Err(WireError::Config("ledger_cap must be >= 1".into()));
        }
        self.heartbeat.validate(self.response_timeout)?;
        Ok(())
    }
}

/// Bounded per-peer record of every trace routed to a peer, replayed
/// wholesale when the peer dies (failover) or comes back as a fresh
/// process (restage). Evicts whole traces, oldest first.
struct FailoverBuffer {
    spans: HashMap<u64, Vec<Span>>,
    order: VecDeque<u64>,
    cap: usize,
}

impl FailoverBuffer {
    fn new(cap: usize) -> Self {
        FailoverBuffer {
            spans: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn record(&mut self, span: &Span) {
        if let Some(existing) = self.spans.get_mut(&span.trace_id) {
            existing.push(span.clone());
            return;
        }
        self.spans.insert(span.trace_id, vec![span.clone()]);
        self.order.push_back(span.trace_id);
        if self.order.len() > self.cap {
            if let Some(evicted) = self.order.pop_front() {
                self.spans.remove(&evicted);
            }
        }
    }

    /// Clone every retained trace, oldest first (restage keeps the
    /// buffer: the peer still owns these traces).
    fn entries(&self) -> Vec<(u64, Vec<Span>)> {
        self.order
            .iter()
            .filter_map(|id| self.spans.get(id).map(|s| (*id, s.clone())))
            .collect()
    }

    /// Take every retained trace, oldest first, leaving the buffer
    /// empty (failover moves ownership to the survivors).
    fn drain_all(&mut self) -> Vec<(u64, Vec<Span>)> {
        let order = std::mem::take(&mut self.order);
        let mut spans = std::mem::take(&mut self.spans);
        order
            .into_iter()
            .filter_map(|id| spans.remove(&id).map(|s| (id, s)))
            .collect()
    }
}

/// Everything the router hands back after a clean shutdown.
#[derive(Debug)]
pub struct RouterReport {
    /// Every verdict received (real ones from shards plus synthetic
    /// degraded ones for unroutable traces), in arrival order.
    pub verdicts: Vec<Verdict>,
    /// Quarantined entries from every shard, `origin_shard` rewritten
    /// to the global shard index.
    pub quarantined: Vec<QuarantinedTrace>,
    /// Final state per shard (`None` for peers that died without
    /// delivering a `ShutdownReply`).
    pub shard_finals: Vec<Option<ShardFinal>>,
    /// All shard metrics folded through
    /// [`MetricsSnapshot::merge`] — the audited aggregation path, so
    /// span conservation balances across processes.
    pub metrics: MetricsSnapshot,
    /// Router-side wire metrics.
    pub wire: WireMetricsSnapshot,
    /// Peers that were dead at shutdown.
    pub dead_peers: Vec<usize>,
}

enum Event {
    Frame(usize, u64, Frame),
    Dead(usize, u64, WireError),
}

struct Peer {
    idx: usize,
    endpoint: Endpoint,
    session_id: u64,
    alive: bool,
    generation: u64,
    writer: Option<FrameWriter<WireStream>>,
    stream: Option<WireStream>,
    reader_handle: Option<JoinHandle<()>>,
    send: SendChannel,
    recv: RecvChannel,
    ever_connected: bool,
    final_state: Option<Box<ShardFinal>>,
    last_metrics: Option<Box<MetricsSnapshot>>,
    publish_version: Option<u64>,
    hb: HeartbeatState,
    buffer: FailoverBuffer,
    needs_restage: bool,
    restaging: bool,
}

/// A client connection to a fleet of shard servers.
pub struct RouterClient {
    peers: Vec<Peer>,
    config: RouterConfig,
    injector: Arc<dyn WireFaultInjector>,
    metrics: Arc<WireMetrics>,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    verdicts: Vec<Verdict>,
    quarantined: Vec<QuarantinedTrace>,
    ledger: VerdictLedger,
    closing: bool,
    started: Instant,
    last_now_us: u64,
}

impl RouterClient {
    /// Connect to every endpoint with no fault injection.
    pub fn connect(config: RouterConfig) -> Result<RouterClient, WireError> {
        RouterClient::connect_with_injector(config, Arc::new(NoWireFaults))
    }

    /// Connect to every endpoint, threading `injector` into every
    /// frame writer (the chaos seam). Fails only when *no* shard is
    /// reachable or the config is empty; individual unreachable
    /// shards start out dead and get degraded-verdict treatment.
    pub fn connect_with_injector(
        config: RouterConfig,
        injector: Arc<dyn WireFaultInjector>,
    ) -> Result<RouterClient, WireError> {
        config.validate()?;
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let metrics = Arc::new(WireMetrics::default());
        let peers = config
            .endpoints
            .iter()
            .enumerate()
            .map(|(idx, endpoint)| Peer {
                idx,
                endpoint: endpoint.clone(),
                session_id: config
                    .session_seed
                    .wrapping_add(idx as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1,
                alive: false,
                generation: 0,
                writer: None,
                stream: None,
                reader_handle: None,
                send: SendChannel::new(config.session_cap),
                recv: RecvChannel::new(config.session_cap),
                ever_connected: false,
                final_state: None,
                last_metrics: None,
                publish_version: None,
                hb: HeartbeatState::default(),
                buffer: FailoverBuffer::new(config.failover_buffer_cap),
                needs_restage: false,
                restaging: false,
            })
            .collect();
        let ledger_cap = config.ledger_cap;
        let mut client = RouterClient {
            peers,
            config,
            injector,
            metrics,
            events_tx,
            events_rx,
            verdicts: Vec::new(),
            quarantined: Vec::new(),
            ledger: VerdictLedger::new(ledger_cap),
            closing: false,
            started: Instant::now(),
            last_now_us: 0,
        };
        for idx in 0..client.peers.len() {
            if !client.dial(idx, false) {
                client.kill_peer(idx);
            }
        }
        if client.peers.iter().any(|p| p.alive) {
            Ok(client)
        } else {
            Err(WireError::PeerDead { peer: 0 })
        }
    }

    /// Number of shards (dead or alive) this router fans out over.
    pub fn num_shards(&self) -> usize {
        self.peers.len()
    }

    /// Indices of peers currently declared dead.
    pub fn dead_peers(&self) -> Vec<usize> {
        self.peers
            .iter()
            .filter(|p| !p.alive)
            .map(|p| p.idx)
            .collect()
    }

    /// Router-side wire metrics.
    pub fn wire_metrics(&self) -> WireMetricsSnapshot {
        self.metrics.snapshot()
    }

    // ---- Connection management --------------------------------------

    /// Dial peer `idx`. `resume` asks the server to reattach the
    /// existing session; on success unacked frames are replayed.
    fn dial(&mut self, idx: usize, resume: bool) -> bool {
        let attempts = self
            .config
            .reconnect_attempts
            .max(if resume { 0 } else { 1 });
        if resume && self.config.reconnect_attempts == 0 {
            return false;
        }
        let backoff = Backoff::new(
            self.config.reconnect_backoff.as_micros() as u64,
            self.config.reconnect_backoff_max.as_micros() as u64,
        );
        for attempt in 0..attempts {
            if attempt > 0 {
                backoff.sleep_and_advance();
            }
            if let Some(delay) = self.injector.connect_delay(idx, attempt) {
                std::thread::sleep(delay);
            }
            if self.try_dial_once(idx, resume) {
                if resume {
                    self.metrics.reconnects.inc();
                }
                return true;
            }
        }
        false
    }

    fn try_dial_once(&mut self, idx: usize, resume: bool) -> bool {
        let endpoint = self.peers[idx].endpoint.clone();
        let session_id = self.peers[idx].session_id;
        let Ok(stream) = WireStream::connect(&endpoint) else {
            return false;
        };
        if stream
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
            || stream.set_nodelay().is_err()
        {
            return false;
        }
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        let mut reader = FrameReader::new(
            read_half,
            self.config.max_frame_len,
            Arc::clone(&self.metrics),
        );
        let Ok(write_half) = stream.try_clone() else {
            return false;
        };
        let mut writer = FrameWriter::new(
            write_half,
            PROTOCOL_VERSION,
            idx,
            Arc::clone(&self.injector),
            Arc::clone(&self.metrics),
        );
        if writer
            .send(&Frame::Hello {
                min_version: MIN_PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
                session_id,
                resume,
            })
            .is_err()
        {
            return false;
        }
        // Synchronous handshake: wait for HelloAck on this thread.
        let deadline = Instant::now() + self.config.response_timeout;
        let (version, resumed) = loop {
            match reader.read_frame() {
                Ok(Frame::HelloAck { version, resumed }) => break (version, resumed),
                Ok(Frame::Error { .. }) => return false,
                Ok(_) => continue, // stale replayed frames: reader thread's job
                Err(WireError::Timeout) if Instant::now() < deadline => continue,
                Err(e) if !e.is_stream_fatal() => continue,
                Err(_) => return false,
            }
        };
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
            return false;
        }
        writer.set_version(version);
        let peer = &mut self.peers[idx];
        if resume && !resumed {
            // The server lost the session: a fresh process accepted
            // the connection. Reset both channels and replay the
            // retained trace buffer once the dial completes — the
            // verdict ledger absorbs any duplicates the dead
            // incarnation already delivered. While shutting down there
            // is no restage, so unacked state is unrecoverable and only
            // a pristine channel may continue safely.
            if !self.closing {
                peer.send = SendChannel::new(self.config.session_cap);
                peer.recv = RecvChannel::new(self.config.session_cap);
                peer.needs_restage = true;
                self.metrics.sessions_reset.inc();
            } else if peer.send.unacked_len() > 0 || peer.recv.expected() > 1 {
                return false;
            }
        }
        if resumed {
            self.metrics.sessions_resumed.inc();
        }
        peer.generation += 1;
        peer.hb.reset_probe();
        let generation = peer.generation;
        peer.writer = Some(writer);
        peer.stream = Some(stream);
        peer.alive = true;
        peer.ever_connected = true;
        let events = self.events_tx.clone();
        let handle = std::thread::spawn(move || loop {
            match reader.read_frame() {
                Ok(frame) => {
                    if events.send(Event::Frame(idx, generation, frame)).is_err() {
                        return;
                    }
                }
                Err(WireError::Timeout) => continue,
                Err(e) if !e.is_stream_fatal() => continue,
                Err(e) => {
                    let _ = events.send(Event::Dead(idx, generation, e));
                    return;
                }
            }
        });
        if let Some(old) = self.peers[idx].reader_handle.replace(handle) {
            // The previous generation's reader exits on its own once
            // its (shut-down) socket errors out.
            drop(old);
        }
        // Replay anything the old connection never got acked.
        self.replay_unacked(idx)
    }

    fn replay_unacked(&mut self, idx: usize) -> bool {
        let frames = self.peers[idx].send.unacked_frames();
        if frames.is_empty() {
            return true;
        }
        let Some(writer) = self.peers[idx].writer.as_mut() else {
            return false;
        };
        for frame in &frames {
            if writer.send(frame).is_err() {
                return false;
            }
            self.metrics.frames_resent.inc();
        }
        writer.flush_held().is_ok()
    }

    /// Declare a peer dead: close its socket, count it, and fail its
    /// retained traces over to the survivors.
    fn kill_peer(&mut self, idx: usize) {
        let peer = &mut self.peers[idx];
        if let Some(stream) = peer.stream.take() {
            stream.shutdown_both();
        }
        peer.writer = None;
        if peer.alive || !peer.ever_connected {
            self.metrics.peer_deaths.inc();
        }
        peer.alive = false;
        peer.hb.health = PeerHealth::Dead;
        self.fail_over(idx);
    }

    /// Recover a failed connection: dial with resume, replaying the
    /// unacked tail (or, when the peer came back as a fresh process,
    /// restaging its retained traces). On failure the peer is dead.
    fn recover(&mut self, idx: usize) -> bool {
        if let Some(stream) = self.peers[idx].stream.take() {
            stream.shutdown_both();
        }
        self.peers[idx].writer = None;
        self.peers[idx].alive = false;
        if self.dial(idx, true) {
            if std::mem::take(&mut self.peers[idx].needs_restage) {
                self.restage(idx);
            }
            true
        } else {
            self.kill_peer(idx);
            false
        }
    }

    /// Re-place everything a dead peer retained over the survivors, or
    /// synthesize degraded verdicts when no shard is left. The drained
    /// buffer makes re-entry (a survivor dying mid-failover) terminate:
    /// each peer's traces move at most once per incident.
    fn fail_over(&mut self, idx: usize) {
        if self.closing {
            return;
        }
        let entries = self.peers[idx].buffer.drain_all();
        if entries.is_empty() {
            return;
        }
        self.metrics.shard_failovers.inc();
        let now_us = self.last_now_us;
        for (trace_id, spans) in entries {
            match self.route_of(trace_id) {
                Some(target) => {
                    for span in &spans {
                        self.peers[target].buffer.record(span);
                    }
                    self.metrics.traces_failed_over.inc();
                    self.send_msg(target, Msg::SpanBatch { now_us, spans });
                }
                None => self.degrade_trace(trace_id),
            }
        }
    }

    /// Replay a fresh-process peer's retained traces over its reset
    /// session. The buffer is kept (the peer still owns these traces);
    /// duplicate verdicts die at the ledger.
    fn restage(&mut self, idx: usize) {
        if self.peers[idx].restaging {
            return;
        }
        self.peers[idx].restaging = true;
        let now_us = self.last_now_us;
        for (_, spans) in self.peers[idx].buffer.entries() {
            if !self.peers[idx].alive {
                break;
            }
            self.send_msg(idx, Msg::SpanBatch { now_us, spans });
        }
        self.peers[idx].restaging = false;
    }

    /// Where a trace goes right now: its owner among the live peers
    /// (`None` when no peer is live).
    fn route_of(&self, trace_id: u64) -> Option<usize> {
        owner_of(
            trace_id,
            self.peers.iter().filter(|p| p.alive).map(|p| p.idx),
        )
    }

    /// Probe live peers whose heartbeat interval has elapsed, and kill
    /// the ones that crossed the miss threshold. Runs on the caller
    /// thread from [`RouterClient::pump`], so detection advances on
    /// every API call and inside every blocking wait.
    fn tick_health(&mut self) {
        if self.closing {
            // During shutdown a shard legitimately goes quiet while
            // draining; socket errors still catch real deaths.
            return;
        }
        let interval_us = self.config.heartbeat.interval.as_micros() as u64;
        let miss_threshold = self.config.heartbeat.miss_threshold;
        let now_us = self.started.elapsed().as_micros() as u64;
        let mut dead = Vec::new();
        let mut failed = Vec::new();
        for idx in 0..self.peers.len() {
            let peer = &mut self.peers[idx];
            if !peer.alive || now_us.saturating_sub(peer.hb.last_sent_us) < interval_us {
                continue;
            }
            if peer.hb.outstanding.is_some() {
                self.metrics.heartbeats_missed.inc();
                if peer.hb.on_miss(miss_threshold) == PeerHealth::Dead {
                    dead.push(idx);
                    continue;
                }
            }
            let nonce = peer.hb.on_send(now_us);
            let Some(writer) = peer.writer.as_mut() else {
                continue;
            };
            if writer
                .send(&Frame::Heartbeat { nonce })
                .and_then(|_| writer.flush_held())
                .is_ok()
            {
                self.metrics.heartbeats_sent.inc();
            } else {
                failed.push(idx);
            }
        }
        for idx in dead {
            // No redial: a SIGSTOP'd process would accept the
            // connection and stall the handshake; failover now,
            // bounded, beats maybe-recovery later.
            self.kill_peer(idx);
        }
        for idx in failed {
            self.recover(idx);
        }
    }

    /// Stage `msg` to peer `idx` and write it, recovering the
    /// connection once on failure (the staged frame rides the resume
    /// replay). Returns whether the message is staged on a live peer.
    fn send_msg(&mut self, idx: usize, msg: Msg) -> bool {
        if !self.peers[idx].alive {
            return false;
        }
        let frame = match self.peers[idx].send.stage(msg) {
            Ok(frame) => frame,
            Err(_) => {
                self.kill_peer(idx);
                return false;
            }
        };
        let result = {
            let writer = self.peers[idx]
                .writer
                .as_mut()
                .expect("alive peer has a writer");
            writer.send(&frame)
        };
        match result {
            Ok(()) => true,
            Err(_) => self.recover(idx),
        }
    }

    // ---- Event pump --------------------------------------------------

    fn pump(&mut self) {
        // Drain queued frames first so an ack that already arrived is
        // credited before the heartbeat pass judges the peer.
        while let Ok(event) = self.events_rx.try_recv() {
            self.handle_event(event);
        }
        self.tick_health();
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::Frame(idx, generation, frame) => {
                if self.peers[idx].generation != generation {
                    return; // stale connection
                }
                self.handle_frame(idx, frame);
            }
            Event::Dead(idx, generation, _err) => {
                if self.peers[idx].generation != generation || !self.peers[idx].alive {
                    return;
                }
                // A peer that already delivered its final state has
                // nothing left to say: the socket closing is the
                // expected end of a clean shutdown, not a failure —
                // reconnecting would stall the event loop dialing a
                // process that has exited.
                if self.peers[idx].final_state.is_some() {
                    let peer = &mut self.peers[idx];
                    if let Some(stream) = peer.stream.take() {
                        stream.shutdown_both();
                    }
                    peer.writer = None;
                    peer.alive = false;
                    return;
                }
                self.recover(idx);
            }
        }
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        match frame {
            Frame::Ack { upto } => {
                self.peers[idx].send.ack(upto);
            }
            Frame::Nack { expected } => {
                let frames = self.peers[idx].send.resend_from(expected);
                let mut failed = false;
                if let Some(writer) = self.peers[idx].writer.as_mut() {
                    for frame in &frames {
                        if writer.send(frame).is_err() {
                            failed = true;
                            break;
                        }
                        self.metrics.frames_resent.inc();
                    }
                } else {
                    failed = true;
                }
                if failed {
                    self.recover(idx);
                }
            }
            Frame::Data { seq, msg } => match self.peers[idx].recv.accept(seq, msg) {
                RecvOutcome::Deliver(msgs) => {
                    let healed = msgs.len() > 1;
                    if healed {
                        self.metrics.reorders_healed.add((msgs.len() - 1) as u64);
                    }
                    for msg in msgs {
                        self.handle_msg(idx, msg);
                    }
                    self.ack_peer(idx);
                }
                RecvOutcome::Duplicate => {
                    self.metrics.duplicates_dropped.inc();
                    self.ack_peer(idx);
                }
                RecvOutcome::Gap { expected, .. } => {
                    self.metrics.nacks_sent.inc();
                    let mut failed = false;
                    if let Some(writer) = self.peers[idx].writer.as_mut() {
                        failed = writer.send(&Frame::Nack { expected }).is_err();
                    }
                    if failed {
                        self.recover(idx);
                    }
                }
            },
            Frame::HeartbeatAck { nonce } => {
                if self.peers[idx].hb.on_ack(nonce) {
                    self.metrics.heartbeat_acks.inc();
                }
            }
            Frame::Heartbeat { nonce } => {
                // A peer probing us: answer immediately.
                let mut failed = false;
                if let Some(writer) = self.peers[idx].writer.as_mut() {
                    failed = writer
                        .send(&Frame::HeartbeatAck { nonce })
                        .and_then(|_| writer.flush_held())
                        .is_err();
                }
                if failed {
                    self.recover(idx);
                }
            }
            Frame::Goodbye { .. } => {
                // Clean close from the server (our session was
                // superseded by a newer connection): don't dial back.
                self.kill_peer(idx);
            }
            Frame::Hello { .. } | Frame::HelloAck { .. } | Frame::Error { .. } => {}
        }
    }

    fn ack_peer(&mut self, idx: usize) {
        let Some(upto) = self.peers[idx].recv.ack_level() else {
            return;
        };
        let mut failed = false;
        if let Some(writer) = self.peers[idx].writer.as_mut() {
            self.metrics.acks_sent.inc();
            failed = writer
                .send(&Frame::Ack { upto })
                .and_then(|_| writer.flush_held())
                .is_err();
        }
        if failed {
            self.recover(idx);
        }
    }

    fn handle_msg(&mut self, idx: usize, msg: Msg) {
        match msg {
            Msg::Verdict(v) => {
                // Exactly-once across restarts: a trace that already
                // produced an accepted verdict (then got replayed by a
                // respawned shard or re-run by a failover) is dropped
                // here, not double-emitted.
                if self.ledger.insert(v.trace_id) {
                    self.verdicts.push(v);
                } else {
                    self.metrics.verdicts_deduped.inc();
                }
            }
            Msg::Quarantined(q) => {
                let mut entry = q.into_entry();
                // Rewrite local → global shard attribution. Servers
                // already stamp their configured global id; fall back
                // to the peer index for older entries.
                entry.origin_shard = entry.origin_shard.or(Some(idx));
                self.quarantined.push(entry);
            }
            Msg::MetricsReply(m) => self.peers[idx].last_metrics = Some(m),
            Msg::PublishReply { version } => self.peers[idx].publish_version = Some(version),
            Msg::ShutdownReply(f) => {
                self.peers[idx].last_metrics = Some(Box::new(f.metrics.clone()));
                self.peers[idx].final_state = Some(f);
            }
            // Router-bound streams never carry these.
            Msg::SpanBatch { .. }
            | Msg::Tick { .. }
            | Msg::Publish
            | Msg::RefreshBaselines
            | Msg::MetricsRequest
            | Msg::QuarantineDrain
            | Msg::Shutdown => {}
        }
    }

    /// Block on the event queue until `pred(self)` or the deadline,
    /// replaying unacked frames at `resend_interval` so a dropped
    /// request cannot stall the wait.
    fn await_until(&mut self, deadline: Instant, pred: impl Fn(&RouterClient) -> bool) -> bool {
        let mut next_resend = Instant::now() + self.config.resend_interval;
        loop {
            self.pump();
            if pred(self) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if now >= next_resend {
                next_resend = now + self.config.resend_interval;
                for idx in 0..self.peers.len() {
                    if self.peers[idx].alive && self.peers[idx].send.unacked_len() > 0 {
                        self.replay_unacked(idx);
                    }
                }
            }
            let wait = deadline.min(next_resend).saturating_duration_since(now);
            match self
                .events_rx
                .recv_timeout(wait.max(Duration::from_millis(1)))
            {
                Ok(event) => self.handle_event(event),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return pred(self),
            }
        }
    }

    // ---- Public API --------------------------------------------------

    /// Route one span batch. Whole traces go to their owner among the
    /// live peers ([`owner_of`]). Only when no shard is live does a
    /// trace get counted unroutable and one synthetic degraded verdict.
    pub fn submit_batch(&mut self, spans: Vec<Span>, now_us: u64) -> sleuth_serve::SubmitReport {
        self.last_now_us = self.last_now_us.max(now_us);
        self.pump();
        let mut report = sleuth_serve::SubmitReport::default();
        let mut routed: Vec<Vec<Span>> = (0..self.peers.len()).map(|_| Vec::new()).collect();
        for span in spans {
            match self.route_of(span.trace_id) {
                Some(target) => routed[target].push(span),
                None => {
                    report.rejected += 1;
                    self.degrade_trace(span.trace_id);
                }
            }
        }
        for (idx, batch) in routed.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let count = batch.len();
            for span in &batch {
                self.peers[idx].buffer.record(span);
            }
            let sent = self.send_msg(
                idx,
                Msg::SpanBatch {
                    now_us,
                    spans: batch,
                },
            );
            if !sent {
                // The peer is dead — it died in this send or earlier in
                // this loop — so its buffer, this batch included, fails
                // over to the survivors or degrades. A no-op when the
                // death already drained it.
                self.fail_over(idx);
            }
            if sent || self.peers.iter().any(|p| p.alive) {
                report.enqueued += count;
            } else {
                report.rejected += count;
            }
        }
        self.metrics.spans_routed.add(report.enqueued as u64);
        self.metrics.spans_unroutable.add(report.rejected as u64);
        report
    }

    /// One synthetic degraded verdict per trace that no shard can
    /// answer for. The ledger makes it exactly-once: a trace that
    /// already has a verdict, real or degraded, gets no other.
    fn degrade_trace(&mut self, trace_id: u64) {
        if self.ledger.insert(trace_id) {
            self.metrics.degraded_unroutable.inc();
            self.verdicts.push(Verdict {
                trace_id,
                services: Vec::new(),
                cluster: None,
                rca_latency_us: 0,
                model_version: ModelVersion(0),
                degraded: true,
            });
        }
    }

    /// Advance every live shard's logical clock.
    pub fn tick(&mut self, now_us: u64) {
        self.last_now_us = self.last_now_us.max(now_us);
        self.pump();
        for idx in 0..self.peers.len() {
            self.send_msg(idx, Msg::Tick { now_us });
        }
    }

    /// Verdicts received since the last call (including synthetic
    /// degraded verdicts for unroutable traces).
    pub fn poll_verdicts(&mut self) -> Vec<Verdict> {
        self.pump();
        std::mem::take(&mut self.verdicts)
    }

    /// Quarantined entries received since the last call, with global
    /// shard attribution.
    pub fn poll_quarantined(&mut self) -> Vec<QuarantinedTrace> {
        self.pump();
        std::mem::take(&mut self.quarantined)
    }

    /// Ask every live shard to republish its pipeline; block until
    /// each replies with its new version (or the deadline passes).
    /// Returns per-shard versions (`None` = dead or no reply).
    pub fn publish_all(&mut self) -> Vec<Option<u64>> {
        self.pump();
        for peer in &mut self.peers {
            peer.publish_version = None;
        }
        for idx in 0..self.peers.len() {
            self.send_msg(idx, Msg::Publish);
        }
        let deadline = Instant::now() + self.config.response_timeout;
        self.await_until(deadline, |c| {
            c.peers
                .iter()
                .all(|p| !p.alive || p.publish_version.is_some())
        });
        self.peers.iter().map(|p| p.publish_version).collect()
    }

    /// Fetch a fresh metrics snapshot from every live shard
    /// (blocking). Returns per-shard snapshots (`None` = dead or no
    /// reply).
    pub fn fetch_metrics(&mut self) -> Vec<Option<MetricsSnapshot>> {
        self.pump();
        for peer in &mut self.peers {
            peer.last_metrics = None;
        }
        for idx in 0..self.peers.len() {
            self.send_msg(idx, Msg::MetricsRequest);
        }
        let deadline = Instant::now() + self.config.response_timeout;
        self.await_until(deadline, |c| {
            c.peers.iter().all(|p| !p.alive || p.last_metrics.is_some())
        });
        self.peers
            .iter()
            .map(|p| p.last_metrics.as_deref().cloned())
            .collect()
    }

    /// Ask every live shard to flush its quarantine now; entries
    /// arrive via [`RouterClient::poll_quarantined`].
    pub fn drain_quarantine(&mut self) {
        self.pump();
        for idx in 0..self.peers.len() {
            self.send_msg(idx, Msg::QuarantineDrain);
        }
    }

    /// Drive every live shard through shutdown, drain all residual
    /// verdicts and quarantine entries, and merge final metrics.
    pub fn shutdown(mut self) -> RouterReport {
        self.closing = true;
        self.pump();
        for idx in 0..self.peers.len() {
            self.send_msg(idx, Msg::Shutdown);
        }
        let deadline = Instant::now() + self.config.response_timeout;
        self.await_until(deadline, |c| {
            c.peers.iter().all(|p| !p.alive || p.final_state.is_some())
        });
        // Whoever still has no final state is effectively dead.
        for idx in 0..self.peers.len() {
            if self.peers[idx].final_state.is_none() {
                self.kill_peer(idx);
            }
        }
        // Give the last acks a moment to flush, then close.
        self.pump();
        for peer in &mut self.peers {
            if let Some(stream) = peer.stream.take() {
                stream.shutdown_both();
            }
            peer.writer = None;
            peer.alive = false;
        }
        for peer in &mut self.peers {
            if let Some(handle) = peer.reader_handle.take() {
                let _ = handle.join();
            }
        }
        let mut merged = MetricsSnapshot::default();
        let mut shard_finals = Vec::with_capacity(self.peers.len());
        for peer in &mut self.peers {
            let final_state = peer.final_state.take().map(|b| *b);
            if let Some(f) = &final_state {
                merged.merge(&f.metrics);
            }
            shard_finals.push(final_state);
        }
        let dead_peers = shard_finals
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_none())
            .map(|(i, _)| i)
            .collect();
        RouterReport {
            verdicts: std::mem::take(&mut self.verdicts),
            quarantined: std::mem::take(&mut self.quarantined),
            shard_finals,
            metrics: merged,
            wire: self.metrics.snapshot(),
            dead_peers,
        }
    }
}
