//! Trace interchange formats.
//!
//! The paper's collectors (§4) accept OpenTelemetry, Zipkin and Jaeger
//! protocols and forward everything into the storage engine. This
//! module provides JSON import/export for simplified flavours of all
//! three, mapped onto the crate's [`Span`] model. Nested
//! resource/process envelopes are flattened to a per-span service name
//! (documented per format below).

use serde::{Deserialize, Serialize};

use crate::intern::IStr;
use crate::span::{Span, SpanId, SpanKind, StatusCode, TraceId};

/// Errors raised while importing foreign span records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpanError {
    /// The JSON could not be parsed.
    Json(String),
    /// An id field was not valid hexadecimal.
    BadId(String),
    /// An id field had an odd number of hex digits. Ids are byte
    /// strings; an odd digit count means a mangled record, so it is
    /// rejected rather than silently truncated.
    OddLengthId(String),
    /// A span ended before it started.
    NegativeDuration {
        /// Offending span id (hex).
        span: String,
    },
}

impl std::fmt::Display for ParseSpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSpanError::Json(e) => write!(f, "invalid JSON: {e}"),
            ParseSpanError::BadId(s) => write!(f, "invalid hex id {s:?}"),
            ParseSpanError::OddLengthId(s) => {
                write!(f, "hex id {s:?} has an odd number of digits")
            }
            ParseSpanError::NegativeDuration { span } => {
                write!(f, "span {span} ends before it starts")
            }
        }
    }
}

impl std::error::Error for ParseSpanError {}

fn parse_hex_id(s: &str) -> Result<u64, ParseSpanError> {
    if !s.len().is_multiple_of(2) {
        return Err(ParseSpanError::OddLengthId(s.to_string()));
    }
    // Ids may be up to 128-bit; keep the low 64 bits, as many backends
    // do. Digits are read as bytes, so no char-boundary slicing of
    // untrusted text and no sign accepted.
    let digits = s.as_bytes();
    let tail = &digits[digits.len().saturating_sub(16)..];
    if tail.is_empty() {
        return Err(ParseSpanError::BadId(s.to_string()));
    }
    tail.iter().try_fold(0u64, |v, &b| {
        let d = (b as char)
            .to_digit(16)
            .ok_or_else(|| ParseSpanError::BadId(s.to_string()))?;
        Ok(v << 4 | u64::from(d))
    })
}

/// Append the 16-digit zero-padded lowercase hex form of `v` to `out`
/// without any intermediate allocation (unlike `format!("{v:016x}")`,
/// which builds formatter machinery and a fresh `String` per id).
pub fn write_hex16(v: u64, out: &mut String) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

fn hex16(v: u64) -> String {
    let mut s = String::with_capacity(16);
    write_hex16(v, &mut s);
    s
}

// ---------------------------------------------------------------------------
// OpenTelemetry (OTLP-JSON flavour)
// ---------------------------------------------------------------------------

/// One span in the (flattened) OTLP JSON flavour: the
/// `resource.attributes["service.name"]` is hoisted to `serviceName`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "camelCase")]
pub struct OtelSpan {
    /// Trace id, hex.
    pub trace_id: String,
    /// Span id, hex.
    pub span_id: String,
    /// Parent span id, hex; empty or absent for roots.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent_span_id: Option<String>,
    /// Operation name.
    pub name: String,
    /// `SPAN_KIND_*` constant.
    pub kind: String,
    /// Start time, Unix nanoseconds.
    pub start_time_unix_nano: u64,
    /// End time, Unix nanoseconds.
    pub end_time_unix_nano: u64,
    /// `STATUS_CODE_*` constant.
    #[serde(default)]
    pub status_code: Option<String>,
    /// Hoisted `service.name` resource attribute.
    pub service_name: String,
    /// Hoisted `k8s.pod.name` attribute.
    #[serde(default)]
    pub pod_name: Option<String>,
    /// Hoisted `k8s.node.name` attribute.
    #[serde(default)]
    pub node_name: Option<String>,
}

fn otel_kind(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Client => "SPAN_KIND_CLIENT",
        SpanKind::Server => "SPAN_KIND_SERVER",
        SpanKind::Producer => "SPAN_KIND_PRODUCER",
        SpanKind::Consumer => "SPAN_KIND_CONSUMER",
        SpanKind::Internal => "SPAN_KIND_INTERNAL",
    }
}

fn parse_otel_kind(s: &str) -> SpanKind {
    match s {
        "SPAN_KIND_CLIENT" => SpanKind::Client,
        "SPAN_KIND_PRODUCER" => SpanKind::Producer,
        "SPAN_KIND_CONSUMER" => SpanKind::Consumer,
        "SPAN_KIND_INTERNAL" => SpanKind::Internal,
        _ => SpanKind::Server,
    }
}

fn parse_otel_status(s: &str) -> StatusCode {
    match s {
        "STATUS_CODE_ERROR" => StatusCode::Error,
        "STATUS_CODE_OK" => StatusCode::Ok,
        _ => StatusCode::Unset,
    }
}

/// Export spans in the OTLP JSON flavour.
pub fn to_otel(spans: &[Span]) -> Vec<OtelSpan> {
    spans
        .iter()
        .map(|s| OtelSpan {
            trace_id: hex16(s.trace_id),
            span_id: hex16(s.span_id),
            parent_span_id: s.parent_span_id.map(hex16),
            name: s.name.to_string(),
            kind: otel_kind(s.kind).to_string(),
            start_time_unix_nano: s.start_us * 1_000,
            end_time_unix_nano: s.end_us * 1_000,
            status_code: Some(
                match s.status {
                    StatusCode::Unset => "STATUS_CODE_UNSET",
                    StatusCode::Ok => "STATUS_CODE_OK",
                    StatusCode::Error => "STATUS_CODE_ERROR",
                }
                .to_string(),
            ),
            service_name: s.service.to_string(),
            pod_name: (!s.pod.is_empty()).then(|| s.pod.to_string()),
            node_name: (!s.node.is_empty()).then(|| s.node.to_string()),
        })
        .collect()
}

/// Import OTLP-flavour spans.
///
/// # Errors
///
/// Returns [`ParseSpanError`] for malformed ids or inverted intervals.
pub fn from_otel(records: &[OtelSpan]) -> Result<Vec<Span>, ParseSpanError> {
    records
        .iter()
        .map(|r| {
            let trace_id: TraceId = parse_hex_id(&r.trace_id)?;
            let span_id: SpanId = parse_hex_id(&r.span_id)?;
            let parent = match &r.parent_span_id {
                Some(p) if !p.is_empty() => Some(parse_hex_id(p)?),
                _ => None,
            };
            if r.end_time_unix_nano < r.start_time_unix_nano {
                return Err(ParseSpanError::NegativeDuration {
                    span: r.span_id.clone(),
                });
            }
            let status = r
                .status_code
                .as_deref()
                .map_or(StatusCode::Unset, parse_otel_status);
            let mut b = Span::builder(trace_id, span_id, r.service_name.clone(), r.name.clone())
                .kind(parse_otel_kind(&r.kind))
                .time(
                    r.start_time_unix_nano / 1_000,
                    r.end_time_unix_nano / 1_000,
                )
                .status(status)
                .placement(
                    r.pod_name.clone().unwrap_or_default(),
                    r.node_name.clone().unwrap_or_default(),
                );
            if let Some(p) = parent {
                b = b.parent(p);
            }
            Ok(b.build())
        })
        .collect()
}

/// Parse an OTLP-flavour JSON array into spans.
///
/// This is the ingest hot path, so it does not round-trip through an
/// intermediate record/value tree: a hand-rolled scanner walks the
/// JSON bytes once and builds [`Span`]s directly. Keys, ids and enum
/// constants are matched on the borrowed input, and identifiers are
/// interned straight from it; only a string containing a backslash is
/// decoded into a scratch buffer first. Steady-state parsing of a
/// known vocabulary allocates nothing but the output `Vec`.
///
/// # Errors
///
/// Returns [`ParseSpanError::Json`] for malformed JSON, otherwise as
/// [`from_otel`].
pub fn from_otel_json(json: &str) -> Result<Vec<Span>, ParseSpanError> {
    let mut scanner = OtlpScanner::new(json);
    scanner.parse_spans()
}

/// The record keys the scanner acts on; anything else is skipped.
#[derive(Clone, Copy)]
enum OtlpField {
    TraceId,
    SpanId,
    ParentSpanId,
    Name,
    ServiceName,
    PodName,
    NodeName,
    Kind,
    StatusCode,
    StartTimeUnixNano,
    EndTimeUnixNano,
    Unknown,
}

impl OtlpField {
    fn of(key: &str) -> OtlpField {
        match key {
            "traceId" => OtlpField::TraceId,
            "spanId" => OtlpField::SpanId,
            "parentSpanId" => OtlpField::ParentSpanId,
            "name" => OtlpField::Name,
            "serviceName" => OtlpField::ServiceName,
            "podName" => OtlpField::PodName,
            "nodeName" => OtlpField::NodeName,
            "kind" => OtlpField::Kind,
            "statusCode" => OtlpField::StatusCode,
            "startTimeUnixNano" => OtlpField::StartTimeUnixNano,
            "endTimeUnixNano" => OtlpField::EndTimeUnixNano,
            _ => OtlpField::Unknown,
        }
    }
}

/// Single-pass OTLP-JSON scanner (see [`from_otel_json`]).
struct OtlpScanner<'a> {
    /// The document; kept as `&str` so an escape-free string value is
    /// a sub-slice of it, with no UTF-8 re-validation.
    src: &'a str,
    pos: usize,
    /// Decode buffer for strings that contain escapes.
    scratch: String,
}

impl<'a> OtlpScanner<'a> {
    fn new(json: &'a str) -> Self {
        OtlpScanner {
            src: json,
            pos: 0,
            scratch: String::new(),
        }
    }

    fn err(&self, msg: &str) -> ParseSpanError {
        ParseSpanError::Json(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseSpanError> {
        self.skip_ws();
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", want as char)))
        }
    }

    fn bad_string(pos: usize) -> ParseSpanError {
        ParseSpanError::Json(format!("malformed string at byte {pos}"))
    }

    /// Index of the first `"` or `\` at or after `from` (the input's
    /// length if there is none): the end of a run of plain string text.
    /// An indexed loop: `iter().position` on the sub-slice measured
    /// 17 % slower on the whole scan.
    fn plain_run_end(bytes: &[u8], from: usize) -> usize {
        let mut end = from;
        while let Some(&b) = bytes.get(end) {
            if b == b'"' || b == b'\\' {
                break;
            }
            end += 1;
        }
        end
    }

    /// Parse a JSON string (key or value). Escape-free text — every
    /// key and identifier a real exporter writes — is returned as a
    /// slice of the input; text with a backslash is decoded into
    /// `scratch` and returned from there.
    fn string(&mut self) -> Result<&str, ParseSpanError> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(Self::bad_string(self.pos));
        }
        let start = self.pos + 1;
        let end = Self::plain_run_end(bytes, start);
        match bytes.get(end) {
            Some(b'"') => {
                self.pos = end + 1;
                // Both ends sit next to an ASCII quote, so they are
                // char boundaries of the (already valid) input.
                Ok(&self.src[start..end])
            }
            Some(_) => {
                self.pos = start;
                self.decode_escaped()?;
                Ok(&self.scratch)
            }
            None => Err(Self::bad_string(end)),
        }
    }

    /// Slow path of [`Self::string`]: decode the string body starting
    /// at `pos` (just past the opening quote) into `scratch`.
    fn decode_escaped(&mut self) -> Result<(), ParseSpanError> {
        let bytes = self.src.as_bytes();
        let pos = &mut self.pos;
        let buf = &mut self.scratch;
        buf.clear();
        let bad = Self::bad_string;
        loop {
            let seg = *pos;
            *pos = Self::plain_run_end(bytes, seg);
            // Segment ends sit next to ASCII quotes/backslashes or
            // just past a complete escape: char boundaries.
            buf.push_str(&self.src[seg..*pos]);
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    *pos += 1;
                    let esc = *bytes.get(*pos).ok_or_else(|| bad(*pos))?;
                    *pos += 1;
                    match esc {
                        b'"' => buf.push('"'),
                        b'\\' => buf.push('\\'),
                        b'/' => buf.push('/'),
                        b'b' => buf.push('\u{8}'),
                        b'f' => buf.push('\u{c}'),
                        b'n' => buf.push('\n'),
                        b'r' => buf.push('\r'),
                        b't' => buf.push('\t'),
                        b'u' => {
                            let hi = Self::hex4(bytes, pos).ok_or_else(|| bad(*pos))?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if bytes.get(*pos) != Some(&b'\\')
                                    || bytes.get(*pos + 1) != Some(&b'u')
                                {
                                    return Err(bad(*pos));
                                }
                                *pos += 2;
                                let lo = Self::hex4(bytes, pos).ok_or_else(|| bad(*pos))?;
                                let code = 0x10000
                                    + ((hi - 0xd800) << 10)
                                    + lo.checked_sub(0xdc00).ok_or_else(|| bad(*pos))?;
                                char::from_u32(code).ok_or_else(|| bad(*pos))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| bad(*pos))?
                            };
                            buf.push(c);
                        }
                        _ => return Err(bad(*pos)),
                    }
                }
                _ => return Err(bad(*pos)),
            }
        }
    }

    fn hex4(bytes: &[u8], pos: &mut usize) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = *bytes.get(*pos)?;
            *pos += 1;
            v = v * 16 + (b as char).to_digit(16)?;
        }
        Some(v)
    }

    /// Parse an unsigned 64-bit integer, bare or quoted (the OTLP
    /// proto3 JSON mapping renders 64-bit ints as strings).
    fn parse_u64(&mut self) -> Result<u64, ParseSpanError> {
        self.skip_ws();
        let quoted = self.peek() == Some(b'"');
        if quoted {
            self.pos += 1;
        }
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.err("integer overflow"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected integer"));
        }
        if quoted {
            if self.peek() != Some(b'"') {
                return Err(self.err("unterminated quoted integer"));
            }
            self.pos += 1;
        }
        Ok(v)
    }

    /// Skip any JSON value (used for unknown fields): a string, a
    /// `true`/`false`/`null`/number scalar, or an object/array whose
    /// brackets close in the order they opened.
    fn skip_value(&mut self) -> Result<(), ParseSpanError> {
        // Open brackets, innermost last.
        let mut nesting: Vec<u8> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    self.string()?;
                }
                Some(open @ (b'{' | b'[')) => {
                    nesting.push(open);
                    self.pos += 1;
                    continue;
                }
                Some(close @ (b'}' | b']')) => {
                    let open = if close == b'}' { b'{' } else { b'[' };
                    if nesting.pop() != Some(open) {
                        return Err(self.err("mismatched bracket"));
                    }
                    self.pos += 1;
                }
                Some(b',' | b':') if !nesting.is_empty() => {
                    self.pos += 1;
                    continue;
                }
                Some(_) => self.skip_scalar()?,
                None => return Err(self.err("unterminated value")),
            }
            if nesting.is_empty() {
                return Ok(());
            }
        }
    }

    /// Skip `true`, `false`, `null` or a JSON number; reject any other
    /// bare token.
    fn skip_scalar(&mut self) -> Result<(), ParseSpanError> {
        let rest = &self.src.as_bytes()[self.pos..];
        let len = [&b"true"[..], b"false", b"null"]
            .into_iter()
            .find(|lit| rest.starts_with(lit))
            .map(|lit| lit.len())
            .or_else(|| json_number_len(rest))
            .ok_or_else(|| self.err("expected a JSON value"))?;
        // A scalar ends at a delimiter, not in the middle of a token.
        match rest.get(len) {
            None | Some(b',' | b'}' | b']') => {}
            Some(b) if b.is_ascii_whitespace() => {}
            Some(_) => return Err(self.err("expected a JSON value")),
        }
        self.pos += len;
        Ok(())
    }

    /// `true` when the next value is `null` (which is then consumed).
    fn take_null(&mut self) -> bool {
        self.skip_ws();
        if self.src.as_bytes()[self.pos..].starts_with(b"null") {
            self.pos += 4;
            true
        } else {
            false
        }
    }

    fn parse_spans(&mut self) -> Result<Vec<Span>, ParseSpanError> {
        let mut out = Vec::new();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                let span = self.parse_record()?;
                out.push(span);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing data after span array"));
        }
        Ok(out)
    }

    fn parse_record(&mut self) -> Result<Span, ParseSpanError> {
        self.expect(b'{')?;
        let mut trace_id: Option<TraceId> = None;
        let mut span_id: Option<SpanId> = None;
        // Where the `spanId` value starts, to quote it in an error.
        let mut span_id_at = 0;
        let mut parent: Option<SpanId> = None;
        let mut kind: Option<SpanKind> = None;
        let mut status = StatusCode::Unset;
        let mut start_nano: Option<u64> = None;
        let mut end_nano: Option<u64> = None;
        let mut name: Option<IStr> = None;
        let mut service: Option<IStr> = None;
        let mut pod = IStr::default();
        let mut node = IStr::default();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                Some(b',') => {
                    self.pos += 1;
                    continue;
                }
                _ => {}
            }
            let field = OtlpField::of(self.string()?);
            self.expect(b':')?;
            // Optional fields may be spelled `null`; a later `null`
            // does not clear an earlier value.
            let nullable = matches!(
                field,
                OtlpField::ParentSpanId
                    | OtlpField::PodName
                    | OtlpField::NodeName
                    | OtlpField::StatusCode
            );
            if nullable && self.take_null() {
                continue;
            }
            match field {
                OtlpField::TraceId => trace_id = Some(parse_hex_id(self.string()?)?),
                OtlpField::SpanId => {
                    self.skip_ws();
                    span_id_at = self.pos;
                    span_id = Some(parse_hex_id(self.string()?)?);
                }
                OtlpField::ParentSpanId => {
                    let text = self.string()?;
                    if !text.is_empty() {
                        parent = Some(parse_hex_id(text)?);
                    }
                }
                OtlpField::Name => name = Some(IStr::intern(self.string()?)),
                OtlpField::ServiceName => service = Some(IStr::intern(self.string()?)),
                OtlpField::PodName => pod = IStr::intern(self.string()?),
                OtlpField::NodeName => node = IStr::intern(self.string()?),
                OtlpField::Kind => kind = Some(parse_otel_kind(self.string()?)),
                OtlpField::StatusCode => status = parse_otel_status(self.string()?),
                OtlpField::StartTimeUnixNano => start_nano = Some(self.parse_u64()?),
                OtlpField::EndTimeUnixNano => end_nano = Some(self.parse_u64()?),
                OtlpField::Unknown => self.skip_value()?,
            }
        }
        let missing = |f: &str| ParseSpanError::Json(format!("missing field `{f}`"));
        let trace_id = trace_id.ok_or_else(|| missing("traceId"))?;
        let span_id = span_id.ok_or_else(|| missing("spanId"))?;
        let kind = kind.ok_or_else(|| missing("kind"))?;
        let start_nano = start_nano.ok_or_else(|| missing("startTimeUnixNano"))?;
        let end_nano = end_nano.ok_or_else(|| missing("endTimeUnixNano"))?;
        let name = name.ok_or_else(|| missing("name"))?;
        let service = service.ok_or_else(|| missing("serviceName"))?;
        if end_nano < start_nano {
            self.pos = span_id_at;
            return Err(ParseSpanError::NegativeDuration {
                span: self.string()?.to_string(),
            });
        }
        Ok(Span {
            trace_id,
            span_id,
            parent_span_id: parent,
            service,
            name,
            kind,
            start_us: start_nano / 1_000,
            end_us: end_nano / 1_000,
            status,
            pod,
            node,
        })
    }
}

/// Length of the JSON number (`-?int[.frac][e[+-]exp]`) at the start of
/// `b`, if there is one.
fn json_number_len(b: &[u8]) -> Option<usize> {
    let digits = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut i = usize::from(b.first() == Some(&b'-'));
    match digits(i) {
        0 => return None,
        n if n > 1 && b[i] == b'0' => return None, // leading zero
        n => i += n,
    }
    if b.get(i) == Some(&b'.') {
        match digits(i + 1) {
            0 => return None,
            n => i += 1 + n,
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
        match digits(i + 1 + sign) {
            0 => return None,
            n => i += 1 + sign + n,
        }
    }
    Some(i)
}

/// Serialise spans as an OTLP-flavour JSON array.
pub fn to_otel_json(spans: &[Span]) -> String {
    serde_json::to_string_pretty(&to_otel(spans)).expect("otel records serialise")
}

// ---------------------------------------------------------------------------
// Zipkin v2
// ---------------------------------------------------------------------------

/// Zipkin v2 endpoint.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(rename_all = "camelCase")]
pub struct ZipkinEndpoint {
    /// Service name.
    #[serde(default)]
    pub service_name: String,
}

/// One Zipkin v2 span.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "camelCase")]
pub struct ZipkinSpan {
    /// Trace id, hex.
    pub trace_id: String,
    /// Span id, hex.
    pub id: String,
    /// Parent span id, hex.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent_id: Option<String>,
    /// Operation name.
    pub name: String,
    /// `CLIENT` / `SERVER` / `PRODUCER` / `CONSUMER`.
    #[serde(default)]
    pub kind: Option<String>,
    /// Start, Unix microseconds.
    pub timestamp: u64,
    /// Duration, microseconds.
    pub duration: u64,
    /// Local endpoint (service).
    #[serde(default)]
    pub local_endpoint: ZipkinEndpoint,
    /// Tags; `error` marks failures, `k8s.pod`/`k8s.node` carry
    /// placement.
    #[serde(default)]
    pub tags: std::collections::BTreeMap<String, String>,
}

/// Export spans in Zipkin v2 format.
pub fn to_zipkin(spans: &[Span]) -> Vec<ZipkinSpan> {
    spans
        .iter()
        .map(|s| {
            let mut tags = std::collections::BTreeMap::new();
            if s.is_error() {
                tags.insert("error".to_string(), "true".to_string());
            }
            if !s.pod.is_empty() {
                tags.insert("k8s.pod".to_string(), s.pod.to_string());
            }
            if !s.node.is_empty() {
                tags.insert("k8s.node".to_string(), s.node.to_string());
            }
            ZipkinSpan {
                trace_id: hex16(s.trace_id),
                id: hex16(s.span_id),
                parent_id: s.parent_span_id.map(hex16),
                name: s.name.to_string(),
                kind: Some(
                    match s.kind {
                        SpanKind::Client => "CLIENT",
                        SpanKind::Server => "SERVER",
                        SpanKind::Producer => "PRODUCER",
                        SpanKind::Consumer => "CONSUMER",
                        SpanKind::Internal => "INTERNAL",
                    }
                    .to_string(),
                ),
                timestamp: s.start_us,
                duration: s.duration_us(),
                local_endpoint: ZipkinEndpoint {
                    service_name: s.service.to_string(),
                },
                tags,
            }
        })
        .collect()
}

/// Import Zipkin v2 spans.
///
/// # Errors
///
/// Returns [`ParseSpanError`] for malformed ids.
pub fn from_zipkin(records: &[ZipkinSpan]) -> Result<Vec<Span>, ParseSpanError> {
    records
        .iter()
        .map(|r| {
            let trace_id = parse_hex_id(&r.trace_id)?;
            let span_id = parse_hex_id(&r.id)?;
            let kind = match r.kind.as_deref() {
                Some("CLIENT") => SpanKind::Client,
                Some("PRODUCER") => SpanKind::Producer,
                Some("CONSUMER") => SpanKind::Consumer,
                Some("INTERNAL") => SpanKind::Internal,
                _ => SpanKind::Server,
            };
            let status = if r.tags.contains_key("error") {
                StatusCode::Error
            } else {
                StatusCode::Ok
            };
            let mut b = Span::builder(
                trace_id,
                span_id,
                r.local_endpoint.service_name.clone(),
                r.name.clone(),
            )
            .kind(kind)
            .time(r.timestamp, r.timestamp + r.duration)
            .status(status)
            .placement(
                r.tags.get("k8s.pod").cloned().unwrap_or_default(),
                r.tags.get("k8s.node").cloned().unwrap_or_default(),
            );
            if let Some(p) = &r.parent_id {
                b = b.parent(parse_hex_id(p)?);
            }
            Ok(b.build())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Jaeger (jaeger-ui JSON flavour)
// ---------------------------------------------------------------------------

/// Jaeger span reference.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "camelCase")]
pub struct JaegerRef {
    /// Reference type (`CHILD_OF`).
    pub ref_type: String,
    /// Referenced span id, hex.
    #[serde(rename = "spanID")]
    pub span_id: String,
}

/// Jaeger key/value tag (string and bool values only).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JaegerTag {
    /// Tag key.
    pub key: String,
    /// Tag value rendered as a string.
    pub value: String,
}

/// One Jaeger span (jaeger-ui JSON flavour; `process` flattened to a
/// service name).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "camelCase")]
pub struct JaegerSpan {
    /// Trace id, hex.
    #[serde(rename = "traceID")]
    pub trace_id: String,
    /// Span id, hex.
    #[serde(rename = "spanID")]
    pub span_id: String,
    /// Operation name.
    pub operation_name: String,
    /// Parent references.
    #[serde(default)]
    pub references: Vec<JaegerRef>,
    /// Start, Unix microseconds.
    pub start_time: u64,
    /// Duration, microseconds.
    pub duration: u64,
    /// Service name (flattened process).
    pub service_name: String,
    /// Tags (`span.kind`, `error`, `k8s.pod`, `k8s.node`).
    #[serde(default)]
    pub tags: Vec<JaegerTag>,
}

/// Export spans in the Jaeger flavour.
pub fn to_jaeger(spans: &[Span]) -> Vec<JaegerSpan> {
    spans
        .iter()
        .map(|s| {
            let mut tags = vec![JaegerTag {
                key: "span.kind".into(),
                value: s.kind.to_string(),
            }];
            if s.is_error() {
                tags.push(JaegerTag {
                    key: "error".into(),
                    value: "true".into(),
                });
            }
            if !s.pod.is_empty() {
                tags.push(JaegerTag {
                    key: "k8s.pod".into(),
                    value: s.pod.to_string(),
                });
            }
            if !s.node.is_empty() {
                tags.push(JaegerTag {
                    key: "k8s.node".into(),
                    value: s.node.to_string(),
                });
            }
            JaegerSpan {
                trace_id: hex16(s.trace_id),
                span_id: hex16(s.span_id),
                operation_name: s.name.to_string(),
                references: s
                    .parent_span_id
                    .map(|p| {
                        vec![JaegerRef {
                            ref_type: "CHILD_OF".into(),
                            span_id: hex16(p),
                        }]
                    })
                    .unwrap_or_default(),
                start_time: s.start_us,
                duration: s.duration_us(),
                service_name: s.service.to_string(),
                tags,
            }
        })
        .collect()
}

/// Import Jaeger-flavour spans.
///
/// # Errors
///
/// Returns [`ParseSpanError`] for malformed ids.
pub fn from_jaeger(records: &[JaegerSpan]) -> Result<Vec<Span>, ParseSpanError> {
    records
        .iter()
        .map(|r| {
            let trace_id = parse_hex_id(&r.trace_id)?;
            let span_id = parse_hex_id(&r.span_id)?;
            let tag = |k: &str| r.tags.iter().find(|t| t.key == k).map(|t| t.value.as_str());
            let kind = match tag("span.kind") {
                Some("client") => SpanKind::Client,
                Some("producer") => SpanKind::Producer,
                Some("consumer") => SpanKind::Consumer,
                Some("internal") => SpanKind::Internal,
                _ => SpanKind::Server,
            };
            let status = if tag("error") == Some("true") {
                StatusCode::Error
            } else {
                StatusCode::Ok
            };
            let mut b = Span::builder(trace_id, span_id, r.service_name.clone(), r.operation_name.clone())
                .kind(kind)
                .time(r.start_time, r.start_time + r.duration)
                .status(status)
                .placement(
                    tag("k8s.pod").unwrap_or_default(),
                    tag("k8s.node").unwrap_or_default(),
                );
            if let Some(parent) = r
                .references
                .iter()
                .find(|rf| rf.ref_type == "CHILD_OF")
            {
                b = b.parent(parse_hex_id(&parent.span_id)?);
            }
            Ok(b.build())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample() -> Vec<Span> {
        vec![
            Span::builder(0xabc, 1, "frontend", "GET /")
                .kind(SpanKind::Server)
                .time(1_000, 9_000)
                .status(StatusCode::Ok)
                .placement("frontend-0", "node-2")
                .build(),
            Span::builder(0xabc, 2, "db", "query")
                .parent(1)
                .kind(SpanKind::Client)
                .time(2_000, 7_000)
                .status(StatusCode::Error)
                .build(),
        ]
    }

    #[test]
    fn otel_roundtrip() {
        let spans = sample();
        let back = from_otel(&to_otel(&spans)).unwrap();
        assert_eq!(back, spans);
        // JSON path too.
        let back2 = from_otel_json(&to_otel_json(&spans)).unwrap();
        assert_eq!(back2, spans);
    }

    #[test]
    fn zipkin_roundtrip() {
        let spans = sample();
        let back = from_zipkin(&to_zipkin(&spans)).unwrap();
        // Zipkin has no Unset status; Ok survives, Error survives.
        assert_eq!(back, spans);
    }

    #[test]
    fn jaeger_roundtrip() {
        let spans = sample();
        let back = from_jaeger(&to_jaeger(&spans)).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn imported_spans_assemble() {
        let spans = from_otel(&to_otel(&sample())).unwrap();
        let trace = Trace::assemble(spans).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.max_depth(), 1);
    }

    #[test]
    fn bad_hex_rejected() {
        let mut rec = to_otel(&sample());
        rec[0].trace_id = "not-hexy".into(); // even length, non-hex digits
        assert!(matches!(
            from_otel(&rec),
            Err(ParseSpanError::BadId(_))
        ));
    }

    #[test]
    fn odd_length_id_rejected_not_truncated() {
        let mut rec = to_otel(&sample());
        rec[0].trace_id = "abc".into(); // would parse as 0xabc if truncated
        assert!(matches!(
            from_otel(&rec),
            Err(ParseSpanError::OddLengthId(_))
        ));
        let mut rec = to_otel(&sample());
        rec[1].span_id = "0123456789abcdef0".into(); // 17 digits
        assert!(matches!(
            from_otel(&rec),
            Err(ParseSpanError::OddLengthId(_))
        ));
    }

    #[test]
    fn write_hex16_matches_format() {
        for v in [0u64, 1, 0xabc, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut s = String::new();
            write_hex16(v, &mut s);
            assert_eq!(s, format!("{v:016x}"));
        }
    }

    #[test]
    fn scanner_matches_typed_import() {
        // The hand-rolled scanner and the serde/record path must agree.
        let spans = sample();
        let json = to_otel_json(&spans);
        let typed: Vec<OtelSpan> = serde_json::from_str(&json).unwrap();
        assert_eq!(from_otel_json(&json).unwrap(), from_otel(&typed).unwrap());
    }

    #[test]
    fn scanner_handles_escapes_unknown_fields_and_quoted_ints() {
        let json = r#"[
          {
            "traceId": "0abc",
            "spanId": "01",
            "name": "GET \"\u00e9tat\" \n",
            "kind": "SPAN_KIND_SERVER",
            "startTimeUnixNano": "1000000",
            "endTimeUnixNano": 9000000,
            "statusCode": null,
            "serviceName": "front\\end",
            "futureField": {"nested": ["x", 1, true, null]},
            "another": -3.5
          },
          {
            "traceId": "0abc",
            "spanId": "02",
            "parentSpanId": "01",
            "name": "q",
            "kind": "SPAN_KIND_CLIENT",
            "startTimeUnixNano": 2000000,
            "endTimeUnixNano": 7000000,
            "serviceName": "db",
            "podName": "db-0",
            "nodeName": null
          }
        ]"#;
        let spans = from_otel_json(json).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "GET \"\u{e9}tat\" \n");
        assert_eq!(spans[0].service, "front\\end");
        assert_eq!(spans[0].start_us, 1_000);
        assert_eq!(spans[0].status, StatusCode::Unset);
        assert_eq!(spans[1].parent_span_id, Some(1));
        assert_eq!(spans[1].pod, "db-0");
        assert_eq!(spans[1].node, "");
    }

    #[test]
    fn scanner_reports_missing_fields_and_garbage() {
        assert!(matches!(
            from_otel_json(r#"[{"traceId": "01"}]"#),
            Err(ParseSpanError::Json(_))
        ));
        assert!(matches!(
            from_otel_json("[1, 2]"),
            Err(ParseSpanError::Json(_))
        ));
        assert!(matches!(
            from_otel_json("[] trailing"),
            Err(ParseSpanError::Json(_))
        ));
        assert!(from_otel_json("  [ ]  ").unwrap().is_empty());
        // An unknown field's value must still be JSON: brackets close
        // in the order they opened and a bare token is a literal or a
        // number.
        let with_unknown = |value: &str| {
            from_otel_json(&format!(
                r#"[{{"traceId": "0a", "spanId": "01", "name": "x", "kind": "SPAN_KIND_SERVER",
                    "startTimeUnixNano": 1000, "endTimeUnixNano": 2000, "serviceName": "s",
                    "x": {value}}}]"#
            ))
        };
        for ok in [
            "[]", "{}", r#"{"a":[1,{"b":null}],"c":"]"}"#, "true", "false", "null", "0", "-0",
            "12", "-3.5", "1e9", "2.5E-3", r#""}""#,
        ] {
            assert_eq!(with_unknown(ok).map(|s| s.len()), Ok(1), "{ok}");
        }
        for bad in [
            "[}", "{]", "[{]}", r#"{"a":[}"#, "[1", "bogus", "tru", "nul", "truex", "01", "-",
            "1.", ".5", "1e", "+1", "1 2", "[bogus]", r#"{"a":nope}"#, "",
        ] {
            assert!(
                matches!(with_unknown(bad), Err(ParseSpanError::Json(_))),
                "{bad:?}: {:?}",
                with_unknown(bad)
            );
        }
    }

    #[test]
    fn scanner_recognises_escaped_keys() {
        // A key is matched on its decoded text, however it is spelled.
        let plain = r#"[{"traceId": "0abc", "spanId": "01", "parentSpanId": "02", "name": "op",
            "kind": "SPAN_KIND_CLIENT", "startTimeUnixNano": 1000, "endTimeUnixNano": 9000,
            "statusCode": "STATUS_CODE_ERROR", "serviceName": "svc", "podName": "p",
            "nodeName": "n"}]"#;
        let escaped = r#"[{"trace\u0049d": "0abc", "\u0073panId": "01", "parentSpan\u0049\u0064": "02",
            "na\u006de": "op", "k\u0069nd": "SPAN_KIND_CLIENT",
            "startTimeUnix\u004eano": 1000, "endTimeUnixNan\u006f": 9000,
            "status\u0043ode": "STATUS_CODE_ERROR", "service\u004eame": "svc",
            "\u0070odName": "p", "nodeNam\u0065": "n"}]"#;
        let spans = from_otel_json(escaped).unwrap();
        assert_eq!(spans, from_otel_json(plain).unwrap());
        assert_eq!(spans[0].name, "op");
        assert_eq!(spans[0].parent_span_id, Some(2));
        assert_eq!(spans[0].status, StatusCode::Error);
        assert_eq!(spans[0].node, "n");
        // An escaped spelling of an unknown key is still unknown.
        assert!(from_otel_json(r#"[{"n\u0061me2": 1}]"#).is_err());
    }

    #[test]
    fn hex_ids_are_parsed_bytewise() {
        assert_eq!(parse_hex_id("0aBc").unwrap(), 0xabc);
        assert!(matches!(parse_hex_id(""), Err(ParseSpanError::BadId(_))));
        assert!(matches!(parse_hex_id("+a"), Err(ParseSpanError::BadId(_))));
        // 20 bytes whose low-64-bit cut falls inside a two-byte char:
        // a typed error, not a char-boundary panic.
        let id = "a\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}a";
        assert_eq!(id.len(), 20);
        assert!(matches!(parse_hex_id(id), Err(ParseSpanError::BadId(_))));
    }

    #[test]
    fn scanner_negative_duration_names_the_span() {
        let json = r#"[{"traceId": "0a", "spanId": "beef", "name": "x",
            "kind": "SPAN_KIND_SERVER", "startTimeUnixNano": 2000,
            "endTimeUnixNano": 1000, "serviceName": "s"}]"#;
        match from_otel_json(json) {
            Err(ParseSpanError::NegativeDuration { span }) => assert_eq!(span, "beef"),
            other => panic!("expected NegativeDuration, got {other:?}"),
        }
    }

    #[test]
    fn long_ids_truncate_to_low_64_bits() {
        assert_eq!(
            parse_hex_id("0123456789abcdef0000000000000042").unwrap(),
            0x42
        );
    }

    #[test]
    fn inverted_interval_rejected() {
        let mut rec = to_otel(&sample());
        rec[0].end_time_unix_nano = rec[0].start_time_unix_nano - 1;
        assert!(matches!(
            from_otel(&rec),
            Err(ParseSpanError::NegativeDuration { .. })
        ));
    }

    #[test]
    fn missing_parent_means_root() {
        let rec = to_otel(&sample());
        let spans = from_otel(&rec).unwrap();
        assert_eq!(spans[0].parent_span_id, None);
        assert_eq!(spans[1].parent_span_id, Some(1));
    }

    #[test]
    fn otel_json_parse_error_is_reported() {
        assert!(matches!(
            from_otel_json("{not json"),
            Err(ParseSpanError::Json(_))
        ));
    }
}
