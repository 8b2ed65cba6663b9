//! Bounded quarantine for poison traces.
//!
//! A trace that crashes a worker (or fails assembly) must not be
//! retried forever — that turns one bad input into a permanently
//! wedged pipeline. After its bounded retry budget is spent the trace
//! is parked here with a machine-readable reason, counted in the
//! `poison_traces` metric, and exposed through
//! [`crate::ServeRuntime::poll_quarantined`] so an operator (or a
//! test) can inspect exactly what was given up on. The store is
//! bounded: overflow drops the *oldest* entry (counted in
//! `quarantine_dropped`) so a malformed-input storm cannot exhaust
//! memory.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sleuth_trace::{Trace, TraceId};

use crate::metrics::MetricsRegistry;
use crate::output::OutputWake;
use crate::sync::lock_or_recover;

/// Why a trace was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The completed span set failed [`Trace::assemble`]; the message
    /// is the assembly error's display form.
    Assembly(String),
    /// RCA on this trace panicked on every allowed attempt.
    RcaPanic {
        /// The worker that observed the final panic.
        worker: usize,
        /// Attempts consumed (≥ the configured `max_rca_attempts`).
        attempts: u32,
    },
    /// A shard worker panicked while this batch was in flight; its
    /// spans never reached the collector.
    ShardPanic {
        /// The shard that panicked.
        shard: usize,
    },
}

impl QuarantineReason {
    /// Stable label for the `sleuth_serve_quarantined_total{reason=…}`
    /// metric series.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::Assembly(_) => "assembly",
            QuarantineReason::RcaPanic { .. } => "rca_panic",
            QuarantineReason::ShardPanic { .. } => "shard_panic",
        }
    }
}

/// One quarantined trace (or span batch, when the trace never
/// assembled).
#[derive(Debug, Clone)]
pub struct QuarantinedTrace {
    /// The trace id, when one is known. A shard-panic batch can carry
    /// spans from several traces; the id is then the first span's.
    pub trace_id: Option<TraceId>,
    /// Spans involved, for conservation accounting.
    pub span_count: usize,
    /// Why the runtime gave up.
    pub reason: QuarantineReason,
    /// The shard that owned this trace when it was given up on. Set by
    /// every quarantine site (shard workers know their own id; the RCA
    /// stage recomputes it from the trace id), so a router aggregating
    /// several shard processes can attribute each entry to its origin.
    /// In a multi-process topology the entry leaves its process still
    /// carrying the *local* shard id; the router rewrites it to the
    /// global shard index.
    pub origin_shard: Option<usize>,
    /// The assembled trace, when it got that far (RCA panics).
    pub trace: Option<Arc<Trace>>,
}

/// Bounded FIFO of [`QuarantinedTrace`] entries shared by every
/// supervised stage.
pub struct QuarantineStore {
    entries: Mutex<VecDeque<QuarantinedTrace>>,
    capacity: usize,
    metrics: Arc<MetricsRegistry>,
    wake: Arc<OutputWake>,
}

impl QuarantineStore {
    /// Store holding at most `capacity` entries.
    pub fn new(capacity: usize, metrics: Arc<MetricsRegistry>) -> Self {
        assert!(capacity > 0, "quarantine capacity must be positive");
        QuarantineStore {
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity,
            metrics,
            wake: Arc::default(),
        }
    }

    /// Bump `wake` on every [`QuarantineStore::put`], so a blocked
    /// [`crate::OutputHandle::wait`] sees the entry.
    pub(crate) fn with_wake(mut self, wake: Arc<OutputWake>) -> Self {
        self.wake = wake;
        self
    }

    /// Park `entry`, counting it in `poison_traces` (and its reason
    /// label). When full, the oldest entry is dropped and counted in
    /// `quarantine_dropped`. Bumps the runtime's output wake once the
    /// entry is visible.
    pub fn put(&self, entry: QuarantinedTrace) {
        self.metrics.poison_traces.inc();
        self.metrics.record_quarantined(entry.reason.label());
        let mut entries = lock_or_recover(&self.entries, Some(&self.metrics.lock_poisoned));
        if entries.len() >= self.capacity {
            entries.pop_front();
            self.metrics.quarantine_dropped.inc();
        }
        entries.push_back(entry);
        drop(entries);
        self.wake.bump();
    }

    /// Take every quarantined entry accumulated since the last call,
    /// oldest first.
    pub fn drain(&self) -> Vec<QuarantinedTrace> {
        lock_or_recover(&self.entries, Some(&self.metrics.lock_poisoned))
            .drain(..)
            .collect()
    }

    /// Entries currently parked.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.entries, Some(&self.metrics.lock_poisoned)).len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for QuarantineStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuarantineStore")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> QuarantinedTrace {
        QuarantinedTrace {
            trace_id: Some(id),
            span_count: 1,
            reason: QuarantineReason::Assembly("test".to_string()),
            origin_shard: Some(0),
            trace: None,
        }
    }

    #[test]
    fn put_counts_and_drain_empties() {
        let metrics = Arc::new(MetricsRegistry::default());
        let store = QuarantineStore::new(4, Arc::clone(&metrics));
        store.put(entry(1));
        store.put(entry(2));
        assert_eq!(store.len(), 2);
        assert_eq!(metrics.poison_traces.get(), 2);
        let drained = store.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].trace_id, Some(1));
        assert!(store.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let metrics = Arc::new(MetricsRegistry::default());
        let store = QuarantineStore::new(2, Arc::clone(&metrics));
        for id in 1..=3 {
            store.put(entry(id));
        }
        assert_eq!(metrics.quarantine_dropped.get(), 1);
        let ids: Vec<_> = store.drain().into_iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![Some(2), Some(3)]);
    }

    #[test]
    fn reason_labels_are_stable() {
        assert_eq!(
            QuarantineReason::Assembly(String::new()).label(),
            "assembly"
        );
        assert_eq!(
            QuarantineReason::RcaPanic {
                worker: 0,
                attempts: 2
            }
            .label(),
            "rca_panic"
        );
        assert_eq!(
            QuarantineReason::ShardPanic { shard: 1 }.label(),
            "shard_panic"
        );
    }
}
