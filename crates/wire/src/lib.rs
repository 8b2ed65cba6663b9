//! `sleuth-wire`: the multi-process serving layer.
//!
//! Everything `sleuth-serve` does in one process — sharded ingest,
//! RCA, quarantine, metrics — this crate distributes across
//! processes: a front-end **router** places span batches (with the
//! same rendezvous hashing, [`sleuth_serve::owner_of`], the runtime
//! uses in-process) on N **shard servers**, each wrapping a
//! single-shard [`sleuth_serve::ServeRuntime`] behind a TCP or
//! Unix-domain socket listener.
//!
//! The pieces, bottom-up:
//!
//! * [`frame`] — a compact length-prefixed binary frame format with
//!   magic bytes, protocol-version negotiation, and per-frame FNV-1a
//!   checksums. Decoding untrusted bytes is total: it returns a
//!   structured [`WireError`], never panics, and does work bounded by
//!   the frame's declared (and capped) length.
//! * [`session`] — sequence numbers, cumulative acks, nacks, a
//!   bounded reorder buffer, and resend-on-gap give exactly-once,
//!   in-order delivery of data frames over a lossy connection, and
//!   sessions survive reconnects.
//! * [`codec`] — the incremental [`FrameReader`] (timeout-safe) and
//!   the [`FrameWriter`], which hosts the network chaos seam
//!   ([`WireFaultInjector`]): outgoing data frames can be dropped,
//!   duplicated, reordered, corrupted, or truncated, and the
//!   connection killed, by a seeded and budgeted plan.
//! * [`transport`] — `tcp:HOST:PORT` / `unix:/path` endpoints behind
//!   one blocking-stream type.
//! * [`health`] — the cluster failure model: heartbeat-driven
//!   Live/Suspect/Dead peer state and the exactly-once
//!   [`VerdictLedger`].
//! * [`server`] — [`serve_shard`]: the shard-server loop a
//!   `sleuth-shardd` process runs. Nothing in it polls: the acceptor
//!   blocks in `accept` (a newer router connection supersedes a dead
//!   session), and the writer blocks on the runtime's output wake, so
//!   a verdict leaves the process as soon as it is emitted.
//! * [`router`] — [`RouterClient`]: connects to every shard, routes
//!   batches, merges verdict/quarantine/metric streams, heals from
//!   peer death with bounded reconnects, detects dead or stalled
//!   shards via heartbeats, fails their traces over to survivors, and
//!   emits degraded verdicts only when no shard is left.
//!
//! The contract that makes the whole construction testable:
//! **fault transparency**. For any budgeted [`WireFaultInjector`]
//! plan, the verdict set coming out of a multi-process run equals the
//! fault-free multi-process run, which equals the single-process
//! [`sleuth_serve::ServeRuntime`] run on the same input.

mod bytes;

pub mod codec;
pub mod error;
pub mod frame;
pub mod health;
pub mod metrics;
pub mod router;
pub mod server;
pub mod session;
pub mod transport;

pub use codec::{FrameFate, FrameReader, FrameWriter, NoWireFaults, WireFaultInjector};
pub use error::WireError;
pub use frame::{
    decode_frame_bytes, encode_frame, fnv1a64, frame_checksum, Frame, FrameHeader, Msg, ShardFinal,
    WireQuarantined, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
pub use health::{HealthConfigError, HeartbeatConfig, HeartbeatState, PeerHealth, VerdictLedger};
pub use metrics::{WireMetrics, WireMetricsSnapshot};
pub use router::{RouterClient, RouterConfig, RouterReport};
pub use server::{serve_shard, ShardServerConfig};
pub use session::{RecvChannel, RecvOutcome, SendChannel};
pub use transport::{Endpoint, WireListener, WireStream};
