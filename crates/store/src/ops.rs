//! Store-side feature-engineering operators (§4).
//!
//! The paper offloads exclusive duration/error computation and baseline
//! ("normal state") statistics to the storage engine for throughput.
//! [`BaselineStats`] summarises per-operation behaviour across the
//! stored corpus: the counterfactual RCA restores a span to "normal" by
//! substituting the operation's median duration and clearing errors, and
//! the threshold/realtime baselines consume the percentile fields.

use std::collections::HashMap;

use sleuth_trace::{exclusive, Trace};

use crate::query::{GroupKey, Query};
use crate::store::TraceStore;

/// Summary statistics of one operation `(service, name, kind)` over a
/// corpus of (presumed mostly normal) traces.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationStats {
    /// Number of samples observed.
    pub count: usize,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Standard deviation of duration, µs.
    pub std_us: f64,
    /// Median (p50) duration, µs.
    pub median_us: u64,
    /// 95th percentile duration, µs.
    pub p95_us: u64,
    /// 99th percentile duration, µs.
    pub p99_us: u64,
    /// Fraction of samples with error status.
    pub error_rate: f64,
}

/// Baseline statistics for every operation in a store.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    by_op: HashMap<GroupKey, OperationStats>,
}

impl BaselineStats {
    /// Compute baseline statistics from every span in `store`.
    pub fn compute(store: &TraceStore) -> Self {
        let durations = Query::new(store).durations_by_operation();
        let errors: HashMap<GroupKey, usize> = {
            let mut m: HashMap<GroupKey, usize> = HashMap::new();
            for s in Query::new(store).errors_only().spans() {
                *m.entry(GroupKey::of(&s)).or_default() += 1;
            }
            m
        };
        let mut by_op = HashMap::new();
        for (key, mut ds) in durations {
            ds.sort_unstable();
            let count = ds.len();
            let mean = ds.iter().map(|&d| d as f64).sum::<f64>() / count as f64;
            let var = ds
                .iter()
                .map(|&d| (d as f64 - mean) * (d as f64 - mean))
                .sum::<f64>()
                / count as f64;
            let errs = errors.get(&key).copied().unwrap_or(0);
            let stats = OperationStats {
                count,
                mean_us: mean,
                std_us: var.sqrt(),
                median_us: percentile(&ds, 0.5),
                p95_us: percentile(&ds, 0.95),
                p99_us: percentile(&ds, 0.99),
                error_rate: errs as f64 / count as f64,
            };
            by_op.insert(key, stats);
        }
        BaselineStats { by_op }
    }

    /// Stats for one operation key, if observed.
    pub fn get_key(&self, key: GroupKey) -> Option<&OperationStats> {
        self.by_op.get(&key)
    }

    /// Median duration for an operation key, falling back to
    /// `default_us` when the operation was never observed (e.g. new
    /// service).
    pub fn median_or_key(&self, key: GroupKey, default_us: u64) -> u64 {
        self.get_key(key).map(|s| s.median_us).unwrap_or(default_us)
    }

    /// Number of operations summarised.
    pub fn len(&self) -> usize {
        self.by_op.len()
    }

    /// Whether no operations were summarised.
    pub fn is_empty(&self) -> bool {
        self.by_op.is_empty()
    }

    /// Iterate over all `(operation, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &OperationStats)> {
        self.by_op.iter()
    }
}

/// Nearest-rank percentile of a **sorted** slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Bulk exclusive-duration/error computation over every stored trace.
///
/// Returns, per trace, the assembled [`Trace`] along with its exclusive
/// duration and exclusive error vectors — the store-side operator the
/// paper's pipeline offloads (§4).
pub fn exclusive_features(store: &TraceStore) -> Vec<(Trace, Vec<u64>, Vec<bool>)> {
    store
        .all_traces()
        .into_iter()
        .map(|t| {
            let ex_d = exclusive::exclusive_durations(&t);
            let ex_e = exclusive::exclusive_errors(&t);
            (t, ex_d, ex_e)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::{Span, SpanKind, StatusCode};

    fn corpus() -> TraceStore {
        let mut s = TraceStore::new();
        // 10 normal traces with cart.Add at ~300µs, one slow at 10_000µs.
        for tid in 0..10u64 {
            s.insert_span(
                Span::builder(tid, 1, "cart", "Add")
                    .time(0, 290 + tid * 2)
                    .build(),
            );
        }
        s.insert_span(Span::builder(100, 1, "cart", "Add").time(0, 10_000).build());
        s.insert_span(
            Span::builder(101, 1, "cart", "Add")
                .time(0, 300)
                .status(StatusCode::Error)
                .build(),
        );
        s
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.95), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn baseline_stats_fields() {
        let store = corpus();
        let stats = BaselineStats::compute(&store);
        let key = GroupKey::resolve("cart", "Add", SpanKind::Server).unwrap();
        let op = stats.get_key(key).unwrap();
        assert_eq!(op.count, 12);
        assert!(op.median_us >= 290 && op.median_us <= 310, "median {}", op.median_us);
        assert_eq!(op.p99_us, 10_000);
        assert!((op.error_rate - 1.0 / 12.0).abs() < 1e-9);
        assert!(op.std_us > 0.0);
    }

    #[test]
    fn median_or_falls_back() {
        let stats = BaselineStats::compute(&corpus());
        let ghost = GroupKey {
            service: sleuth_trace::Symbol::intern("ghost"),
            name: sleuth_trace::Symbol::intern("Op"),
            kind: SpanKind::Server,
        };
        assert_eq!(stats.median_or_key(ghost, 777), 777);
        let cart = GroupKey::resolve("cart", "Add", SpanKind::Server).unwrap();
        assert_ne!(stats.median_or_key(cart, 777), 777);
    }

    #[test]
    fn exclusive_features_bulk() {
        let mut s = TraceStore::new();
        s.insert_span(Span::builder(1, 1, "p", "P").time(0, 100).build());
        s.insert_span(Span::builder(1, 2, "c", "C").parent(1).time(20, 80).build());
        let feats = exclusive_features(&s);
        assert_eq!(feats.len(), 1);
        let (t, ex_d, ex_e) = &feats[0];
        assert_eq!(ex_d[t.root()], 40);
        assert!(ex_e.iter().all(|&e| !e));
    }

    #[test]
    fn empty_store_baselines() {
        let stats = BaselineStats::compute(&TraceStore::new());
        assert!(stats.is_empty());
        assert_eq!(stats.len(), 0);
    }
}
