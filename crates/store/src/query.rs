//! Predicate scans and group-by aggregation over the span columns.

use std::collections::HashMap;

use sleuth_trace::{Span, SpanKind, Symbol, TraceId};

use crate::store::TraceStore;

/// A composable span scan over a [`TraceStore`].
///
/// Filters are conjunctive. Terminal methods execute the scan.
/// Identifier filters are symbol-keyed ([`Query::service_sym`]), so
/// the scan compares dense `u32`s against the columnar storage.
///
/// ```
/// # use sleuth_store::{Query, TraceStore};
/// # use sleuth_trace::{Span, Symbol};
/// # let mut store = TraceStore::new();
/// # store.insert_span(Span::builder(1, 1, "cart", "Add").time(0, 100).build());
/// let cart = Symbol::intern("cart");
/// let slow = Query::new(&store).service_sym(cart).min_duration_us(50).spans();
/// assert_eq!(slow.len(), 1);
/// ```
#[derive(Debug)]
pub struct Query<'a> {
    store: &'a TraceStore,
    service: Option<Symbol>,
    kind: Option<SpanKind>,
    errors_only: bool,
    min_duration_us: Option<u64>,
    start_after_us: Option<u64>,
    start_before_us: Option<u64>,
}

impl<'a> Query<'a> {
    /// Begin a scan over `store`.
    pub fn new(store: &'a TraceStore) -> Self {
        Query {
            store,
            service: None,
            kind: None,
            errors_only: false,
            min_duration_us: None,
            start_after_us: None,
            start_before_us: None,
        }
    }

    /// Keep spans from the service with this interned symbol only.
    pub fn service_sym(mut self, service: Symbol) -> Self {
        self.service = Some(service);
        self
    }

    /// Keep spans of this kind only.
    pub fn kind(mut self, kind: SpanKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Keep failed spans only.
    pub fn errors_only(mut self) -> Self {
        self.errors_only = true;
        self
    }

    /// Keep spans with duration ≥ the threshold.
    pub fn min_duration_us(mut self, d: u64) -> Self {
        self.min_duration_us = Some(d);
        self
    }

    /// Keep spans starting at or after the timestamp.
    pub fn start_after_us(mut self, t: u64) -> Self {
        self.start_after_us = Some(t);
        self
    }

    /// Keep spans starting strictly before the timestamp.
    pub fn start_before_us(mut self, t: u64) -> Self {
        self.start_before_us = Some(t);
        self
    }

    fn matching_rows(&self) -> Vec<usize> {
        self.store
            .rows()
            .filter(|&r| {
                if let Some(id) = self.service {
                    if self.store.service_col()[r] != id {
                        return false;
                    }
                }
                if let Some(k) = self.kind {
                    if self.store.kind_col()[r] != k {
                        return false;
                    }
                }
                if self.errors_only && !self.store.status_col()[r].is_error() {
                    return false;
                }
                let dur = self.store.end_col()[r] - self.store.start_col()[r];
                if let Some(min) = self.min_duration_us {
                    if dur < min {
                        return false;
                    }
                }
                if let Some(t) = self.start_after_us {
                    if self.store.start_col()[r] < t {
                        return false;
                    }
                }
                if let Some(t) = self.start_before_us {
                    if self.store.start_col()[r] >= t {
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    /// Execute and materialise the matching spans.
    pub fn spans(&self) -> Vec<Span> {
        self.matching_rows()
            .into_iter()
            .map(|r| self.store.span_at(r))
            .collect()
    }

    /// Execute and count matches without materialising.
    pub fn count(&self) -> usize {
        self.matching_rows().len()
    }

    /// Execute and return distinct trace ids containing a match.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut seen = Vec::new();
        for r in self.matching_rows() {
            let tid = self.store.trace_id_col()[r];
            if !seen.contains(&tid) {
                seen.push(tid);
            }
        }
        seen
    }

    /// Execute with a user-defined filter over materialised spans (the
    /// store engine's "UDF" escape hatch).
    pub fn spans_where(&self, udf: impl Fn(&Span) -> bool) -> Vec<Span> {
        self.spans().into_iter().filter(|s| udf(s)).collect()
    }

    /// Group matching spans' durations by `(service, name, kind)` and
    /// return per-group duration samples (µs).
    pub fn durations_by_operation(&self) -> HashMap<GroupKey, Vec<u64>> {
        let mut groups: HashMap<GroupKey, Vec<u64>> = HashMap::new();
        for r in self.matching_rows() {
            let key = GroupKey {
                service: self.store.service_col()[r],
                name: self.store.name_col()[r],
                kind: self.store.kind_col()[r],
            };
            let dur = self.store.end_col()[r] - self.store.start_col()[r];
            groups.entry(key).or_default().push(dur);
        }
        groups
    }
}

/// Aggregation key: one logical operation, identified by interned
/// symbols. `Copy`, so grouping and lookups never clone strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Service symbol (global interner).
    pub service: Symbol,
    /// Operation-name symbol (global interner).
    pub name: Symbol,
    /// Span kind.
    pub kind: SpanKind,
}

impl GroupKey {
    /// The grouping key of a span.
    pub fn of(span: &Span) -> GroupKey {
        GroupKey {
            service: span.service_sym(),
            name: span.name_sym(),
            kind: span.kind,
        }
    }

    /// Resolve the key from strings, if both have been interned.
    pub fn resolve(service: &str, name: &str, kind: SpanKind) -> Option<GroupKey> {
        Some(GroupKey {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::StatusCode;

    fn store() -> TraceStore {
        let mut s = TraceStore::new();
        s.insert_span(Span::builder(1, 1, "frontend", "GET /").time(0, 1000).build());
        s.insert_span(
            Span::builder(1, 2, "cart", "Add")
                .parent(1)
                .kind(SpanKind::Client)
                .time(100, 400)
                .build(),
        );
        s.insert_span(
            Span::builder(2, 1, "cart", "Add")
                .time(2000, 2900)
                .status(StatusCode::Error)
                .build(),
        );
        s
    }

    #[test]
    fn filter_by_service() {
        let s = store();
        let cart = Symbol::intern("cart");
        assert_eq!(Query::new(&s).service_sym(cart).count(), 2);
        assert_eq!(Query::new(&s).service_sym(Symbol::intern("nope")).count(), 0);
    }

    #[test]
    fn filter_by_kind_and_error() {
        let s = store();
        assert_eq!(Query::new(&s).kind(SpanKind::Client).count(), 1);
        let errs = Query::new(&s).errors_only().spans();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].trace_id, 2);
    }

    #[test]
    fn filter_by_duration_and_time() {
        let s = store();
        assert_eq!(Query::new(&s).min_duration_us(500).count(), 2);
        assert_eq!(Query::new(&s).start_after_us(1500).count(), 1);
        assert_eq!(Query::new(&s).start_before_us(50).count(), 1);
    }

    #[test]
    fn conjunctive_filters() {
        let s = store();
        let cart = Symbol::intern("cart");
        assert_eq!(Query::new(&s).service_sym(cart).errors_only().count(), 1);
        assert_eq!(
            Query::new(&s)
                .service_sym(cart)
                .errors_only()
                .min_duration_us(10_000)
                .count(),
            0
        );
    }

    #[test]
    fn trace_ids_deduplicated() {
        let s = store();
        let cart = Symbol::intern("cart");
        assert_eq!(Query::new(&s).service_sym(cart).trace_ids(), vec![1, 2]);
    }

    #[test]
    fn udf_filter() {
        let s = store();
        let spans = Query::new(&s).spans_where(|sp| sp.name.contains('/'));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].service, "frontend");
    }

    #[test]
    fn group_by_operation() {
        let s = store();
        let groups = Query::new(&s).durations_by_operation();
        let key = GroupKey::resolve("cart", "Add", SpanKind::Client).unwrap();
        assert_eq!(groups[&key], vec![300]);
        assert_eq!(groups.len(), 3);
        assert_eq!(key.service_str(), "cart");
        assert_eq!(key.name_str(), "Add");
        assert_eq!(GroupKey::resolve("no-such-svc", "Add", SpanKind::Client), None);
    }
}
