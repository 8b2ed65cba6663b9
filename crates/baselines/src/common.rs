//! Shared interfaces and per-operation statistics.

use std::cmp::Ordering;
use std::collections::HashMap;

use sleuth_trace::{exclusive, SpanKind, Symbol, Trace};

/// The interface every RCA algorithm exposes: given one anomalous
/// trace, name the root-cause services.
pub trait RootCauseLocator {
    /// Short algorithm name for reports.
    fn name(&self) -> &str;

    /// Predict the set of root-cause services of an anomalous trace.
    fn localize(&self, trace: &Trace) -> Vec<String>;
}

/// Identity of one logical operation, keyed by interned symbols.
///
/// `Copy`: hashing and equality compare two `u32`s, so per-span
/// profile lookups in the scoring hot loops never touch string data.
/// Ordering is still lexicographic over the resolved names (plus
/// kind) so deterministic model-training iteration orders survive the
/// symbol migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// Service symbol (global interner).
    pub service: Symbol,
    /// Operation-name symbol (global interner).
    pub name: Symbol,
    /// Span kind.
    pub kind: SpanKind,
}

impl OpKey {
    /// Key of a span.
    pub fn of(span: &sleuth_trace::Span) -> Self {
        OpKey {
            service: span.service_sym(),
            name: span.name_sym(),
            kind: span.kind,
        }
    }

    /// Key from already-interned symbols.
    pub fn new(service: Symbol, name: Symbol, kind: SpanKind) -> Self {
        OpKey {
            service,
            name,
            kind,
        }
    }

    /// Resolve the key from strings, if both have been interned.
    pub fn resolve(service: &str, name: &str, kind: SpanKind) -> Option<Self> {
        Some(OpKey {
            service: Symbol::lookup(service)?,
            name: Symbol::lookup(name)?,
            kind,
        })
    }

    /// Service name text.
    pub fn service_str(&self) -> &'static str {
        self.service.as_str()
    }

    /// Operation name text.
    pub fn name_str(&self) -> &'static str {
        self.name.as_str()
    }
}

impl PartialOrd for OpKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.service_str(), self.name_str(), self.kind).cmp(&(
            other.service_str(),
            other.name_str(),
            other.kind,
        ))
    }
}

/// Latency/error statistics of one operation over a training corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Samples seen.
    pub count: usize,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Standard deviation of duration, µs.
    pub std_us: f64,
    /// Median duration, µs.
    pub median_us: u64,
    /// 95th percentile duration, µs.
    pub p95_us: u64,
    /// Mean *exclusive* duration, µs.
    pub mean_exclusive_us: f64,
    /// Median exclusive duration, µs.
    pub median_exclusive_us: u64,
}

/// Per-operation statistics learned from a (mostly healthy) corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    stats: HashMap<OpKey, OpStats>,
    /// p95 of end-to-end duration per root operation (the SLO proxy).
    root_p95: HashMap<OpKey, u64>,
    /// Median end-to-end duration per root operation.
    root_p50: HashMap<OpKey, u64>,
}

impl OpProfile {
    /// Fit the profile from training traces.
    pub fn fit(traces: &[Trace]) -> Self {
        let mut durs: HashMap<OpKey, Vec<u64>> = HashMap::new();
        let mut ex_durs: HashMap<OpKey, Vec<u64>> = HashMap::new();
        let mut roots: HashMap<OpKey, Vec<u64>> = HashMap::new();
        for t in traces {
            let ex = exclusive::exclusive_durations(t);
            for (i, s) in t.iter() {
                let key = OpKey::of(s);
                durs.entry(key).or_default().push(s.duration_us());
                ex_durs.entry(key).or_default().push(ex[i]);
            }
            let root = t.span(t.root());
            roots
                .entry(OpKey::of(root))
                .or_default()
                .push(t.total_duration_us());
        }
        let mut stats = HashMap::new();
        for (key, mut ds) in durs {
            ds.sort_unstable();
            let n = ds.len();
            let mean = ds.iter().map(|&d| d as f64).sum::<f64>() / n as f64;
            let var =
                ds.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
            let mut exd = ex_durs.remove(&key).unwrap_or_default();
            exd.sort_unstable();
            let mean_ex = if exd.is_empty() {
                0.0
            } else {
                exd.iter().map(|&d| d as f64).sum::<f64>() / exd.len() as f64
            };
            stats.insert(
                key,
                OpStats {
                    count: n,
                    mean_us: mean,
                    std_us: var.sqrt(),
                    median_us: ds[n / 2],
                    p95_us: ds[(n * 95 / 100).min(n - 1)],
                    mean_exclusive_us: mean_ex,
                    median_exclusive_us: exd.get(exd.len() / 2).copied().unwrap_or(0),
                },
            );
        }
        let mut root_p95 = HashMap::new();
        let mut root_p50 = HashMap::new();
        for (k, mut v) in roots {
            v.sort_unstable();
            root_p95.insert(k, v[(v.len() * 95 / 100).min(v.len() - 1)]);
            root_p50.insert(k, v[v.len() / 2]);
        }
        OpProfile {
            stats,
            root_p95,
            root_p50,
        }
    }

    /// Assemble a profile from externally computed statistics — the
    /// constructor used by incremental baseline refresh, where the
    /// per-operation stats come from streaming sketches over served
    /// traffic rather than a batch [`OpProfile::fit`].
    pub fn from_parts(
        stats: HashMap<OpKey, OpStats>,
        root_p95: HashMap<OpKey, u64>,
        root_p50: HashMap<OpKey, u64>,
    ) -> Self {
        OpProfile {
            stats,
            root_p95,
            root_p50,
        }
    }

    /// Stats for an operation, if seen in training.
    pub fn get(&self, key: &OpKey) -> Option<&OpStats> {
        self.stats.get(key)
    }

    /// The p95 end-to-end latency for traces rooted at `key` (SLO
    /// proxy); `u64::MAX` when unseen.
    pub fn root_slo_us(&self, key: &OpKey) -> u64 {
        self.root_p95.get(key).copied().unwrap_or(u64::MAX)
    }

    /// A contamination-robust SLO: the p95 capped at three times the
    /// median. When the profile is fit on unlabelled production traffic
    /// (which contains anomalies — the unsupervised setting), the raw
    /// p95 drifts into the anomalous range; the median barely moves.
    pub fn robust_root_slo_us(&self, key: &OpKey) -> u64 {
        match (self.root_p95.get(key), self.root_p50.get(key)) {
            (Some(&p95), Some(&p50)) => p95.min(p50.saturating_mul(3)),
            _ => u64::MAX,
        }
    }

    /// Number of operations profiled.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterate over all `(key, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&OpKey, &OpStats)> {
        self.stats.iter()
    }

    /// Iterate over all profiled root operations as
    /// `(key, p50_us, p95_us)` of end-to-end duration.
    pub fn roots(&self) -> impl Iterator<Item = (&OpKey, u64, u64)> {
        self.root_p95.iter().map(|(k, &p95)| {
            let p50 = self.root_p50.get(k).copied().unwrap_or(p95);
            (k, p50, p95)
        })
    }
}

/// Services of spans carrying *exclusive* errors — the DFS rule both
/// simple baselines use for error traces.
pub fn exclusive_error_services(trace: &Trace) -> Vec<String> {
    let ex_err = exclusive::exclusive_errors(trace);
    let mut out: Vec<String> = Vec::new();
    for (i, s) in trace.iter() {
        if ex_err[i] && !out.iter().any(|o| *o == s.service) {
            out.push(s.service.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::{Span, StatusCode};

    fn simple_trace(id: u64, child_dur: u64, err: bool) -> Trace {
        Trace::assemble(vec![
            Span::builder(id, 1, "front", "GET /").time(0, 1000 + child_dur).build(),
            Span::builder(id, 2, "db", "query")
                .parent(1)
                .kind(SpanKind::Client)
                .time(500, 500 + child_dur)
                .status(if err { StatusCode::Error } else { StatusCode::Ok })
                .build(),
        ])
        .unwrap()
    }

    #[test]
    fn profile_fit_basic() {
        let traces: Vec<Trace> = (0..20).map(|i| simple_trace(i, 100 + i, false)).collect();
        let prof = OpProfile::fit(&traces);
        assert_eq!(prof.len(), 2);
        let key = OpKey::resolve("db", "query", SpanKind::Client).unwrap();
        let st = prof.get(&key).unwrap();
        assert_eq!(st.count, 20);
        assert!(st.mean_us > 100.0 && st.mean_us < 125.0);
        assert!(st.median_exclusive_us >= 100);
    }

    #[test]
    fn root_slo_from_p95() {
        let traces: Vec<Trace> = (0..100).map(|i| simple_trace(i, i, false)).collect();
        let prof = OpProfile::fit(&traces);
        let root_key = OpKey::resolve("front", "GET /", SpanKind::Server).unwrap();
        let slo = prof.root_slo_us(&root_key);
        assert!((1090..=1100).contains(&slo), "slo {slo}");
        let ghost = OpKey::new(
            sleuth_trace::Symbol::intern("x"),
            sleuth_trace::Symbol::intern("y"),
            SpanKind::Server,
        );
        assert_eq!(prof.root_slo_us(&ghost), u64::MAX);
    }

    #[test]
    fn exclusive_error_dfs() {
        let t = simple_trace(1, 100, true);
        assert_eq!(exclusive_error_services(&t), vec!["db".to_string()]);
        let t2 = simple_trace(1, 100, false);
        assert!(exclusive_error_services(&t2).is_empty());
    }
}
