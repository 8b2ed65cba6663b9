//! The `sleuth-wire` frame grammar.
//!
//! Every frame on the wire is a 20-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "SLWR"
//!      4     2  version      u16 LE, protocol version of the sender
//!      6     1  frame_type   u8 tag (see the `tag::` constants)
//!      7     1  flags        u8, must be zero in version 1
//!      8     4  payload_len  u32 LE, bytes of payload that follow
//!     12     8  checksum     u64 LE, FNV-1a-64 over frame_type ++ payload
//! ```
//!
//! Control frames (`Hello`, `HelloAck`, `Ack`, `Nack`, `Error`,
//! `Heartbeat`, `HeartbeatAck`, `Goodbye`) are
//! unsequenced; application messages travel inside `Data { seq, msg }`
//! frames whose sequence numbers drive the reliable-delivery layer in
//! [`crate::session`]. Decoding is total: any byte string either
//! parses into exactly one [`Frame`] or yields a structured
//! [`WireError`] — never a panic — and the work done before rejecting
//! a frame is bounded by the frame's own declared (and capped) length.

use sleuth_serve::metrics::HISTOGRAM_BUCKETS;
use sleuth_serve::{
    HistogramSnapshot, MetricsSnapshot, ModelVersion, QuarantineReason, QuarantinedTrace, Verdict,
};
use sleuth_trace::{IStr, Span, SpanKind, StatusCode};

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::WireError;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SLWR";
/// Highest protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Lowest protocol version this build accepts.
pub const MIN_PROTOCOL_VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Default bound on a single frame's payload.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Frame-type tags. Control frames sit below 16, application
/// messages at 16 and above so new control frames never collide.
pub(crate) mod tag {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const ACK: u8 = 3;
    pub const NACK: u8 = 4;
    pub const ERROR: u8 = 5;
    pub const HEARTBEAT: u8 = 6;
    pub const HEARTBEAT_ACK: u8 = 7;
    pub const GOODBYE: u8 = 8;
    pub const SPAN_BATCH: u8 = 16;
    pub const TICK: u8 = 17;
    pub const PUBLISH: u8 = 18;
    pub const REFRESH_BASELINES: u8 = 19;
    pub const METRICS_REQUEST: u8 = 20;
    pub const QUARANTINE_DRAIN: u8 = 21;
    pub const SHUTDOWN: u8 = 22;
    pub const VERDICT: u8 = 23;
    pub const QUARANTINED: u8 = 24;
    pub const METRICS_REPLY: u8 = 25;
    pub const PUBLISH_REPLY: u8 = 26;
    pub const SHUTDOWN_REPLY: u8 = 27;
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free, and adequate
/// for detecting the random corruption the chaos layer injects (it is
/// an integrity check, not an authenticity one).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The per-frame checksum: FNV-1a-64 over the frame-type byte followed
/// by the payload. Including the type byte means a bit-flip in the
/// (otherwise unprotected) `frame_type` header field cannot alias two
/// frame types that happen to share a payload encoding.
pub fn frame_checksum(frame_type: u8, payload: &[u8]) -> u64 {
    fnv1a64_fold(fnv1a64(&[frame_type]), payload)
}

/// A quarantine entry as it travels the wire. The assembled trace (an
/// `Arc<Trace>` in-process) is deliberately *not* serialized — the
/// router needs attribution and accounting, not the poison payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireQuarantined {
    /// Trace id, when known.
    pub trace_id: Option<u64>,
    /// Spans involved, for conservation accounting.
    pub span_count: u64,
    /// Why the shard gave up.
    pub reason: QuarantineReason,
    /// Originating shard (global index once stamped by the server).
    pub origin_shard: Option<u64>,
}

impl WireQuarantined {
    /// Project a runtime quarantine entry onto the wire, dropping the
    /// trace payload and stamping `origin_shard` with `global_shard`.
    pub fn from_entry(entry: &QuarantinedTrace, global_shard: usize) -> Self {
        WireQuarantined {
            trace_id: entry.trace_id,
            span_count: entry.span_count as u64,
            reason: entry.reason.clone(),
            origin_shard: Some(global_shard as u64),
        }
    }

    /// Rehydrate into the runtime type (without the trace payload).
    pub fn into_entry(self) -> QuarantinedTrace {
        QuarantinedTrace {
            trace_id: self.trace_id,
            span_count: self.span_count as usize,
            reason: self.reason,
            origin_shard: self.origin_shard.map(|s| s as usize),
            trace: None,
        }
    }
}

/// What a shard server hands back in its `ShutdownReply`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardFinal {
    /// The shard process's final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Traces in the shard's store at shutdown.
    pub trace_count: u64,
    /// Spans in the shard's store at shutdown.
    pub span_count: u64,
}

/// An application message carried inside a sequenced `Data` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Router → shard: spans observed at logical `now_us`.
    SpanBatch {
        /// Logical observation time, microseconds.
        now_us: u64,
        /// The spans (already routed to this shard).
        spans: Vec<Span>,
    },
    /// Router → shard: advance the logical clock.
    Tick {
        /// New logical time, microseconds.
        now_us: u64,
    },
    /// Router → shard: republish the pipeline (hot-swap drill).
    Publish,
    /// Router → shard: fold pending traces into refreshed baselines.
    RefreshBaselines,
    /// Router → shard: reply with a metrics snapshot.
    MetricsRequest,
    /// Router → shard: flush quarantined entries now.
    QuarantineDrain,
    /// Router → shard: drain, reply `ShutdownReply`, and exit.
    Shutdown,
    /// Shard → router: one root-cause verdict.
    Verdict(Verdict),
    /// Shard → router: one quarantined entry.
    Quarantined(WireQuarantined),
    /// Shard → router: metrics snapshot (boxed: it is large).
    MetricsReply(Box<MetricsSnapshot>),
    /// Shard → router: version now being served after a publish.
    PublishReply {
        /// The new model version.
        version: u64,
    },
    /// Shard → router: final state; the connection ends after this.
    ShutdownReply(Box<ShardFinal>),
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::SpanBatch { .. } => tag::SPAN_BATCH,
            Msg::Tick { .. } => tag::TICK,
            Msg::Publish => tag::PUBLISH,
            Msg::RefreshBaselines => tag::REFRESH_BASELINES,
            Msg::MetricsRequest => tag::METRICS_REQUEST,
            Msg::QuarantineDrain => tag::QUARANTINE_DRAIN,
            Msg::Shutdown => tag::SHUTDOWN,
            Msg::Verdict(_) => tag::VERDICT,
            Msg::Quarantined(_) => tag::QUARANTINED,
            Msg::MetricsReply(_) => tag::METRICS_REPLY,
            Msg::PublishReply { .. } => tag::PUBLISH_REPLY,
            Msg::ShutdownReply(_) => tag::SHUTDOWN_REPLY,
        }
    }
}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener. The receiver picks `min(max_version,
    /// PROTOCOL_VERSION)` if the ranges overlap, else rejects.
    Hello {
        /// Lowest version the sender speaks.
        min_version: u16,
        /// Highest version the sender speaks.
        max_version: u16,
        /// Random id naming the sender's reliable-delivery session.
        session_id: u64,
        /// Whether the sender is reconnecting and wants its session
        /// (sequence state) back.
        resume: bool,
    },
    /// Handshake reply.
    HelloAck {
        /// Negotiated protocol version.
        version: u16,
        /// Whether the requested session was found and resumed.
        resumed: bool,
    },
    /// Cumulative acknowledgement: every `Data` frame with
    /// `seq <= upto` is delivered; the sender may forget them.
    Ack {
        /// Highest contiguously delivered sequence number.
        upto: u64,
    },
    /// Gap report: the receiver is missing `expected`; resend from it.
    Nack {
        /// First sequence number the receiver has not seen.
        expected: u64,
    },
    /// Terminal protocol error report (sent before closing).
    Error {
        /// Stable reason label (a [`WireError::label`] value).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Liveness probe. The receiver must reply [`Frame::HeartbeatAck`]
    /// with the same nonce immediately — even while draining — so the
    /// sender can bound failure-detection time. Heartbeats are
    /// unsequenced and exempt from chaos fates, like every control
    /// frame.
    Heartbeat {
        /// Echo token correlating the probe with its ack.
        nonce: u64,
    },
    /// Reply to a [`Frame::Heartbeat`], echoing its nonce.
    HeartbeatAck {
        /// The nonce from the probe being answered.
        nonce: u64,
    },
    /// Clean end-of-connection notice: the sender is closing this
    /// socket on purpose (e.g. a shard server superseding an old
    /// session with a newly accepted connection). The receiver should
    /// not treat the close as a peer failure.
    Goodbye {
        /// Stable, human-readable reason (e.g. `"superseded"`).
        reason: String,
    },
    /// A sequenced application message.
    Data {
        /// Sequence number, starting at 1 per session.
        seq: u64,
        /// The message.
        msg: Msg,
    },
}

impl Frame {
    /// The frame-type tag written into the header.
    pub(crate) fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::HelloAck { .. } => tag::HELLO_ACK,
            Frame::Ack { .. } => tag::ACK,
            Frame::Nack { .. } => tag::NACK,
            Frame::Error { .. } => tag::ERROR,
            Frame::Heartbeat { .. } => tag::HEARTBEAT,
            Frame::HeartbeatAck { .. } => tag::HEARTBEAT_ACK,
            Frame::Goodbye { .. } => tag::GOODBYE,
            Frame::Data { msg, .. } => msg.tag(),
        }
    }
}

/// Parsed (and validated) header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sender's protocol version.
    pub version: u16,
    /// Frame-type tag.
    pub frame_type: u8,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Declared FNV-1a-64 payload checksum.
    pub checksum: u64,
}

/// Parse and validate a 20-byte header. `max_frame_len` bounds the
/// declared payload length, so the caller learns a frame is oversized
/// before allocating anything for it.
pub fn parse_header(
    bytes: &[u8; HEADER_LEN],
    max_frame_len: u32,
) -> Result<FrameHeader, WireError> {
    let magic: [u8; 4] = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion {
            got: version,
            min: MIN_PROTOCOL_VERSION,
            max: PROTOCOL_VERSION,
        });
    }
    let frame_type = bytes[6];
    let flags = bytes[7];
    if flags != 0 {
        return Err(WireError::InvalidPayload("nonzero flags in version 1"));
    }
    let payload_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if payload_len > max_frame_len {
        return Err(WireError::Oversized {
            declared: payload_len,
            max: max_frame_len,
        });
    }
    let checksum = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    Ok(FrameHeader {
        version,
        frame_type,
        payload_len,
        checksum,
    })
}

/// Encode `frame` into header + payload bytes, stamping `version`.
pub fn encode_frame(frame: &Frame, version: u16) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(frame.frame_type());
    out.push(0); // flags
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(frame.frame_type(), &payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode a frame from a validated header and its payload bytes,
/// verifying the checksum first.
pub fn decode_frame(header: &FrameHeader, payload: &[u8]) -> Result<Frame, WireError> {
    let actual = frame_checksum(header.frame_type, payload);
    if actual != header.checksum {
        return Err(WireError::ChecksumMismatch {
            expected: header.checksum,
            actual,
        });
    }
    let mut r = ByteReader::new(payload);
    let frame = decode_body(header.frame_type, &mut r)?;
    r.finish()?;
    Ok(frame)
}

/// Decode a complete frame (header + payload) from one byte slice —
/// the offline entry point used by property tests. Never panics.
pub fn decode_frame_bytes(bytes: &[u8], max_frame_len: u32) -> Result<Frame, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let mut head = [0u8; HEADER_LEN];
    head.copy_from_slice(&bytes[..HEADER_LEN]);
    let header = parse_header(&head, max_frame_len)?;
    let rest = &bytes[HEADER_LEN..];
    if rest.len() < header.payload_len as usize {
        return Err(WireError::Truncated {
            needed: header.payload_len as usize,
            available: rest.len(),
        });
    }
    if rest.len() > header.payload_len as usize {
        return Err(WireError::TrailingBytes {
            unread: rest.len() - header.payload_len as usize,
        });
    }
    decode_frame(&header, rest)
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match frame {
        Frame::Hello {
            min_version,
            max_version,
            session_id,
            resume,
        } => {
            w.put_u16(*min_version);
            w.put_u16(*max_version);
            w.put_u64(*session_id);
            w.put_bool(*resume);
        }
        Frame::HelloAck { version, resumed } => {
            w.put_u16(*version);
            w.put_bool(*resumed);
        }
        Frame::Ack { upto } => w.put_u64(*upto),
        Frame::Nack { expected } => w.put_u64(*expected),
        Frame::Error { code, detail } => {
            w.put_str(code);
            w.put_str(detail);
        }
        Frame::Heartbeat { nonce } => w.put_u64(*nonce),
        Frame::HeartbeatAck { nonce } => w.put_u64(*nonce),
        Frame::Goodbye { reason } => w.put_str(reason),
        Frame::Data { seq, msg } => {
            w.put_u64(*seq);
            encode_msg(&mut w, msg);
        }
    }
    w.into_vec()
}

fn decode_body(frame_type: u8, r: &mut ByteReader<'_>) -> Result<Frame, WireError> {
    Ok(match frame_type {
        tag::HELLO => Frame::Hello {
            min_version: r.get_u16()?,
            max_version: r.get_u16()?,
            session_id: r.get_u64()?,
            resume: r.get_bool()?,
        },
        tag::HELLO_ACK => Frame::HelloAck {
            version: r.get_u16()?,
            resumed: r.get_bool()?,
        },
        tag::ACK => Frame::Ack { upto: r.get_u64()? },
        tag::NACK => Frame::Nack {
            expected: r.get_u64()?,
        },
        tag::ERROR => Frame::Error {
            code: r.get_str()?.to_owned(),
            detail: r.get_str()?.to_owned(),
        },
        tag::HEARTBEAT => Frame::Heartbeat {
            nonce: r.get_u64()?,
        },
        tag::HEARTBEAT_ACK => Frame::HeartbeatAck {
            nonce: r.get_u64()?,
        },
        tag::GOODBYE => Frame::Goodbye {
            reason: r.get_str()?.to_owned(),
        },
        t if (tag::SPAN_BATCH..=tag::SHUTDOWN_REPLY).contains(&t) => {
            let seq = r.get_u64()?;
            Frame::Data {
                seq,
                msg: decode_msg(t, r)?,
            }
        }
        other => return Err(WireError::UnknownFrameType(other)),
    })
}

fn encode_msg(w: &mut ByteWriter, msg: &Msg) {
    match msg {
        Msg::SpanBatch { now_us, spans } => {
            w.put_u64(*now_us);
            w.put_count(spans.len());
            for span in spans {
                encode_span(w, span);
            }
        }
        Msg::Tick { now_us } => w.put_u64(*now_us),
        Msg::Publish
        | Msg::RefreshBaselines
        | Msg::MetricsRequest
        | Msg::QuarantineDrain
        | Msg::Shutdown => {}
        Msg::Verdict(v) => encode_verdict(w, v),
        Msg::Quarantined(q) => encode_quarantined(w, q),
        Msg::MetricsReply(m) => encode_metrics(w, m),
        Msg::PublishReply { version } => w.put_u64(*version),
        Msg::ShutdownReply(f) => {
            encode_metrics(w, &f.metrics);
            w.put_u64(f.trace_count);
            w.put_u64(f.span_count);
        }
    }
}

fn decode_msg(frame_type: u8, r: &mut ByteReader<'_>) -> Result<Msg, WireError> {
    Ok(match frame_type {
        tag::SPAN_BATCH => {
            let now_us = r.get_u64()?;
            let (n, hint) = r.get_count()?;
            let mut spans = Vec::with_capacity(hint);
            for _ in 0..n {
                spans.push(decode_span(r)?);
            }
            Msg::SpanBatch { now_us, spans }
        }
        tag::TICK => Msg::Tick {
            now_us: r.get_u64()?,
        },
        tag::PUBLISH => Msg::Publish,
        tag::REFRESH_BASELINES => Msg::RefreshBaselines,
        tag::METRICS_REQUEST => Msg::MetricsRequest,
        tag::QUARANTINE_DRAIN => Msg::QuarantineDrain,
        tag::SHUTDOWN => Msg::Shutdown,
        tag::VERDICT => Msg::Verdict(decode_verdict(r)?),
        tag::QUARANTINED => Msg::Quarantined(decode_quarantined(r)?),
        tag::METRICS_REPLY => Msg::MetricsReply(Box::new(decode_metrics(r)?)),
        tag::PUBLISH_REPLY => Msg::PublishReply {
            version: r.get_u64()?,
        },
        tag::SHUTDOWN_REPLY => {
            let metrics = decode_metrics(r)?;
            Msg::ShutdownReply(Box::new(ShardFinal {
                metrics,
                trace_count: r.get_u64()?,
                span_count: r.get_u64()?,
            }))
        }
        other => return Err(WireError::UnknownFrameType(other)),
    })
}

fn encode_span(w: &mut ByteWriter, span: &Span) {
    w.put_u64(span.trace_id);
    w.put_u64(span.span_id);
    w.put_opt_u64(span.parent_span_id);
    w.put_str(&span.service);
    w.put_str(&span.name);
    w.put_u8(span.kind.index() as u8);
    w.put_u64(span.start_us);
    w.put_u64(span.end_us);
    w.put_u8(match span.status {
        StatusCode::Unset => 0,
        StatusCode::Ok => 1,
        StatusCode::Error => 2,
    });
    w.put_str(&span.pod);
    w.put_str(&span.node);
}

fn decode_span(r: &mut ByteReader<'_>) -> Result<Span, WireError> {
    let trace_id = r.get_u64()?;
    let span_id = r.get_u64()?;
    let parent_span_id = r.get_opt_u64()?;
    let service = r.get_str()?;
    let name = r.get_str()?;
    let kind = match r.get_u8()? {
        i if (i as usize) < SpanKind::ALL.len() => SpanKind::ALL[i as usize],
        _ => return Err(WireError::InvalidPayload("span kind tag out of range")),
    };
    let start_us = r.get_u64()?;
    let end_us = r.get_u64()?;
    let status = match r.get_u8()? {
        0 => StatusCode::Unset,
        1 => StatusCode::Ok,
        2 => StatusCode::Error,
        _ => return Err(WireError::InvalidPayload("status tag out of range")),
    };
    let pod = r.get_str()?;
    let node = r.get_str()?;
    // Re-intern on the receiving side: symbols are process-local dense
    // ids and never travel on the wire. The four strings are still
    // borrowed from the payload here; interning pools the text, so
    // decoding a span of known identifiers copies and allocates nothing.
    Ok(Span {
        service: IStr::intern(service),
        name: IStr::intern(name),
        trace_id,
        span_id,
        parent_span_id,
        kind,
        start_us,
        end_us,
        status,
        pod: IStr::intern(pod),
        node: IStr::intern(node),
    })
}

fn encode_verdict(w: &mut ByteWriter, v: &Verdict) {
    w.put_u64(v.trace_id);
    w.put_count(v.services.len());
    for s in &v.services {
        w.put_str(s);
    }
    match v.cluster {
        Some(c) => {
            w.put_u8(1);
            w.put_i64(c as i64);
        }
        None => w.put_u8(0),
    }
    w.put_u64(v.rca_latency_us);
    w.put_u64(v.model_version.0);
    w.put_bool(v.degraded);
}

fn decode_verdict(r: &mut ByteReader<'_>) -> Result<Verdict, WireError> {
    let trace_id = r.get_u64()?;
    let (n, hint) = r.get_count()?;
    let mut services = Vec::with_capacity(hint);
    for _ in 0..n {
        services.push(r.get_str()?.to_owned());
    }
    let cluster = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_i64()? as isize),
        _ => return Err(WireError::InvalidPayload("cluster option tag not 0/1")),
    };
    Ok(Verdict {
        trace_id,
        services,
        cluster,
        rca_latency_us: r.get_u64()?,
        model_version: ModelVersion(r.get_u64()?),
        degraded: r.get_bool()?,
    })
}

fn encode_quarantined(w: &mut ByteWriter, q: &WireQuarantined) {
    w.put_opt_u64(q.trace_id);
    w.put_u64(q.span_count);
    match &q.reason {
        QuarantineReason::Assembly(msg) => {
            w.put_u8(0);
            w.put_str(msg);
        }
        QuarantineReason::RcaPanic { worker, attempts } => {
            w.put_u8(1);
            w.put_u64(*worker as u64);
            w.put_u32(*attempts);
        }
        QuarantineReason::ShardPanic { shard } => {
            w.put_u8(2);
            w.put_u64(*shard as u64);
        }
    }
    w.put_opt_u64(q.origin_shard);
}

fn decode_quarantined(r: &mut ByteReader<'_>) -> Result<WireQuarantined, WireError> {
    let trace_id = r.get_opt_u64()?;
    let span_count = r.get_u64()?;
    let reason = match r.get_u8()? {
        0 => QuarantineReason::Assembly(r.get_str()?.to_owned()),
        1 => QuarantineReason::RcaPanic {
            worker: r.get_u64()? as usize,
            attempts: r.get_u32()?,
        },
        2 => QuarantineReason::ShardPanic {
            shard: r.get_u64()? as usize,
        },
        _ => return Err(WireError::InvalidPayload("quarantine reason tag unknown")),
    };
    Ok(WireQuarantined {
        trace_id,
        span_count,
        reason,
        origin_shard: r.get_opt_u64()?,
    })
}

fn encode_histogram(w: &mut ByteWriter, h: &HistogramSnapshot) {
    for b in &h.buckets {
        w.put_u64(*b);
    }
    w.put_u64(h.count);
    w.put_u64(h.sum);
}

fn decode_histogram(r: &mut ByteReader<'_>) -> Result<HistogramSnapshot, WireError> {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for b in &mut buckets {
        *b = r.get_u64()?;
    }
    Ok(HistogramSnapshot {
        buckets,
        count: r.get_u64()?,
        sum: r.get_u64()?,
    })
}

fn encode_metrics(w: &mut ByteWriter, m: &MetricsSnapshot) {
    for v in [
        m.spans_submitted,
        m.spans_enqueued,
        m.spans_rejected,
        m.spans_shed,
        m.spans_evicted,
        m.spans_deduped,
        m.spans_stored,
        m.traces_completed,
        m.traces_malformed,
        m.traces_anomalous,
        m.verdicts_emitted,
        m.model_swaps,
        m.baseline_refreshes,
        m.refresh_traces_folded,
        m.refresh_traces_shed,
        m.lock_poisoned,
        m.poison_traces,
        m.quarantine_dropped,
        m.spans_quarantined,
        m.verdicts_degraded,
        m.breaker_trips,
    ] {
        w.put_u64(v);
    }
    encode_histogram(w, &m.rca_latency_us);
    encode_histogram(w, &m.queue_depth);
    encode_histogram(w, &m.swap_drain_us);
    encode_histogram(w, &m.refresh_staleness_traces);
    w.put_count(m.verdicts_by_version.len());
    for (v, n) in &m.verdicts_by_version {
        w.put_u64(*v);
        w.put_u64(*n);
    }
    w.put_count(m.rca_worker_latency_us.len());
    for (worker, h) in &m.rca_worker_latency_us {
        w.put_u64(*worker as u64);
        encode_histogram(w, h);
    }
    w.put_count(m.worker_panics.len());
    for (stage, worker, n) in &m.worker_panics {
        w.put_str(stage);
        w.put_u64(*worker as u64);
        w.put_u64(*n);
    }
    w.put_count(m.worker_restarts.len());
    for (stage, worker, n) in &m.worker_restarts {
        w.put_str(stage);
        w.put_u64(*worker as u64);
        w.put_u64(*n);
    }
    for series in [
        &m.spans_rejected_by_reason,
        &m.degraded_by_reason,
        &m.quarantined_by_reason,
    ] {
        w.put_count(series.len());
        for (reason, n) in series.iter() {
            w.put_str(reason);
            w.put_u64(*n);
        }
    }
}

fn decode_metrics(r: &mut ByteReader<'_>) -> Result<MetricsSnapshot, WireError> {
    let mut m = MetricsSnapshot::default();
    for field in [
        &mut m.spans_submitted,
        &mut m.spans_enqueued,
        &mut m.spans_rejected,
        &mut m.spans_shed,
        &mut m.spans_evicted,
        &mut m.spans_deduped,
        &mut m.spans_stored,
        &mut m.traces_completed,
        &mut m.traces_malformed,
        &mut m.traces_anomalous,
        &mut m.verdicts_emitted,
        &mut m.model_swaps,
        &mut m.baseline_refreshes,
        &mut m.refresh_traces_folded,
        &mut m.refresh_traces_shed,
        &mut m.lock_poisoned,
        &mut m.poison_traces,
        &mut m.quarantine_dropped,
        &mut m.spans_quarantined,
        &mut m.verdicts_degraded,
        &mut m.breaker_trips,
    ] {
        *field = r.get_u64()?;
    }
    m.rca_latency_us = decode_histogram(r)?;
    m.queue_depth = decode_histogram(r)?;
    m.swap_drain_us = decode_histogram(r)?;
    m.refresh_staleness_traces = decode_histogram(r)?;
    let (n, hint) = r.get_count()?;
    m.verdicts_by_version = Vec::with_capacity(hint);
    for _ in 0..n {
        m.verdicts_by_version.push((r.get_u64()?, r.get_u64()?));
    }
    let (n, hint) = r.get_count()?;
    m.rca_worker_latency_us = Vec::with_capacity(hint);
    for _ in 0..n {
        let worker = r.get_u64()? as usize;
        m.rca_worker_latency_us.push((worker, decode_histogram(r)?));
    }
    let (n, hint) = r.get_count()?;
    m.worker_panics = Vec::with_capacity(hint);
    for _ in 0..n {
        m.worker_panics
            .push((r.get_str()?.to_owned(), r.get_u64()? as usize, r.get_u64()?));
    }
    let (n, hint) = r.get_count()?;
    m.worker_restarts = Vec::with_capacity(hint);
    for _ in 0..n {
        m.worker_restarts
            .push((r.get_str()?.to_owned(), r.get_u64()? as usize, r.get_u64()?));
    }
    for series in [
        &mut m.spans_rejected_by_reason,
        &mut m.degraded_by_reason,
        &mut m.quarantined_by_reason,
    ] {
        let (n, hint) = r.get_count()?;
        *series = Vec::with_capacity(hint);
        for _ in 0..n {
            series.push((r.get_str()?.to_owned(), r.get_u64()?));
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(trace_id: u64, span_id: u64) -> Span {
        Span::builder(trace_id, span_id, "checkout", "charge")
            .parent(span_id.wrapping_sub(1))
            .kind(SpanKind::Client)
            .time(100, 250)
            .status(StatusCode::Error)
            .placement("pod-3", "node-b")
            .build()
    }

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame, PROTOCOL_VERSION);
        let decoded = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn control_frames_round_trip() {
        roundtrip(Frame::Hello {
            min_version: 1,
            max_version: 3,
            session_id: 0xdead_beef,
            resume: true,
        });
        roundtrip(Frame::HelloAck {
            version: 1,
            resumed: false,
        });
        roundtrip(Frame::Ack { upto: u64::MAX });
        roundtrip(Frame::Nack { expected: 42 });
        roundtrip(Frame::Error {
            code: "oversized".to_string(),
            detail: "declared 1 GiB".to_string(),
        });
        roundtrip(Frame::Heartbeat { nonce: 0x1234 });
        roundtrip(Frame::HeartbeatAck { nonce: u64::MAX });
        roundtrip(Frame::Goodbye {
            reason: "superseded".to_string(),
        });
    }

    #[test]
    fn data_frames_round_trip() {
        roundtrip(Frame::Data {
            seq: 1,
            msg: Msg::SpanBatch {
                now_us: 123,
                spans: vec![sample_span(1, 2), sample_span(1, 3)],
            },
        });
        roundtrip(Frame::Data {
            seq: 2,
            msg: Msg::Tick { now_us: 456 },
        });
        for msg in [
            Msg::Publish,
            Msg::RefreshBaselines,
            Msg::MetricsRequest,
            Msg::QuarantineDrain,
            Msg::Shutdown,
        ] {
            roundtrip(Frame::Data { seq: 3, msg });
        }
        roundtrip(Frame::Data {
            seq: 4,
            msg: Msg::Verdict(Verdict {
                trace_id: 9,
                services: vec!["cart".to_string(), "db".to_string()],
                cluster: Some(-1),
                rca_latency_us: 777,
                model_version: ModelVersion(3),
                degraded: true,
            }),
        });
        roundtrip(Frame::Data {
            seq: 5,
            msg: Msg::Quarantined(WireQuarantined {
                trace_id: Some(11),
                span_count: 4,
                reason: QuarantineReason::RcaPanic {
                    worker: 2,
                    attempts: 3,
                },
                origin_shard: Some(1),
            }),
        });
        roundtrip(Frame::Data {
            seq: 6,
            msg: Msg::PublishReply { version: 2 },
        });
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let mut m = MetricsSnapshot {
            spans_submitted: 100,
            spans_stored: 90,
            spans_rejected: 10,
            verdicts_emitted: 5,
            ..MetricsSnapshot::default()
        };
        m.rca_latency_us.buckets[3] = 7;
        m.rca_latency_us.count = 7;
        m.rca_latency_us.sum = 63;
        m.verdicts_by_version = vec![(1, 3), (2, 2)];
        m.rca_worker_latency_us = vec![(0, m.rca_latency_us.clone())];
        m.worker_panics = vec![("rca".to_string(), 1, 2)];
        m.worker_restarts = vec![("shard".to_string(), 0, 1)];
        m.spans_rejected_by_reason = vec![("queue_full".to_string(), 10)];
        m.degraded_by_reason = vec![("deadline".to_string(), 1)];
        m.quarantined_by_reason = vec![("assembly".to_string(), 2)];
        roundtrip(Frame::Data {
            seq: 7,
            msg: Msg::MetricsReply(Box::new(m.clone())),
        });
        roundtrip(Frame::Data {
            seq: 8,
            msg: Msg::ShutdownReply(Box::new(ShardFinal {
                metrics: m,
                trace_count: 12,
                span_count: 90,
            })),
        });
    }

    #[test]
    fn corrupt_payload_is_checksum_mismatch() {
        let mut bytes = encode_frame(
            &Frame::Data {
                seq: 1,
                msg: Msg::Tick { now_us: 7 },
            },
            PROTOCOL_VERSION,
        );
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_frame(&Frame::Ack { upto: 1 }, PROTOCOL_VERSION);
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = encode_frame(&Frame::Ack { upto: 1 }, PROTOCOL_VERSION);
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::UnsupportedVersion { got: 0xffff, .. })
        ));
    }

    #[test]
    fn oversized_is_detected_from_header_alone() {
        let mut bytes = encode_frame(&Frame::Ack { upto: 1 }, PROTOCOL_VERSION);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame_bytes(&bytes, 1024),
            Err(WireError::Oversized {
                declared: u32::MAX,
                max: 1024
            })
        );
    }

    #[test]
    fn truncated_prefixes_error_not_panic() {
        let bytes = encode_frame(
            &Frame::Data {
                seq: 1,
                msg: Msg::SpanBatch {
                    now_us: 5,
                    spans: vec![sample_span(1, 2)],
                },
            },
            PROTOCOL_VERSION,
        );
        for cut in 0..bytes.len() {
            let err = decode_frame_bytes(&bytes[..cut], DEFAULT_MAX_FRAME_LEN).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    /// Overwrite `payload[at..]` with `patch` and re-stamp the header
    /// checksum, so the corruption reaches the payload decoder.
    fn patched(frame: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        let mut bytes = frame.to_vec();
        bytes[HEADER_LEN + at..HEADER_LEN + at + patch.len()].copy_from_slice(patch);
        let checksum = frame_checksum(bytes[6], &bytes[HEADER_LEN..]);
        bytes[12..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn bad_span_strings_are_typed_errors() {
        // Span strings are borrowed from the payload and validated in
        // place: each of the four positions must reject invalid UTF-8
        // and a length that runs past the payload.
        let frame = encode_frame(
            &Frame::Data {
                seq: 1,
                msg: Msg::SpanBatch {
                    now_us: 5,
                    spans: vec![sample_span(1, 2)],
                },
            },
            PROTOCOL_VERSION,
        );
        let payload = &frame[HEADER_LEN..];
        for text in ["checkout", "charge", "pod-3", "node-b"] {
            let at = payload
                .windows(text.len())
                .position(|w| w == text.as_bytes())
                .expect("string is in the payload");
            for bad in [&[0xff][..], &[0xc3, b'('], &[0xed, 0xa0, 0x80]] {
                assert_eq!(
                    decode_frame_bytes(&patched(&frame, at, bad), DEFAULT_MAX_FRAME_LEN),
                    Err(WireError::InvalidPayload("invalid utf-8")),
                    "{text}: {bad:x?}"
                );
            }
            // The u32 length prefix sits right before the text.
            for len in [payload.len() as u32, u32::MAX] {
                let err = decode_frame_bytes(
                    &patched(&frame, at - 4, &len.to_le_bytes()),
                    DEFAULT_MAX_FRAME_LEN,
                )
                .unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "{text} len {len}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_frame_type_is_recoverable() {
        // A well-formed frame of a type this version doesn't know —
        // what a newer-version peer would send. The checksum is
        // correct (it covers the type byte), so this is recoverable
        // skip-and-continue, not corruption.
        let payload = 7u64.to_le_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.push(0xee);
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_checksum(0xee, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err, WireError::UnknownFrameType(0xee));
        assert!(!err.is_stream_fatal());
    }

    #[test]
    fn flipped_type_byte_is_checksum_mismatch() {
        // The type byte is inside the checksum: a bit-flip there can
        // never alias another frame type with the same payload bytes.
        let mut bytes = encode_frame(&Frame::Ack { upto: 1 }, PROTOCOL_VERSION);
        bytes[6] = tag::NACK;
        let err = decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, WireError::ChecksumMismatch { .. }), "{err:?}");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
