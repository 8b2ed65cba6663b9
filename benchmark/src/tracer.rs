//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own code, around each call
//! into a layer's public functions; nothing inside the program under
//! test is instrumented. A disabled tracer costs one branch per call,
//! which is what the untraced end-to-end run pays.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The trace (request) the span belongs to; 0 for work shared by
    /// several traces.
    pub trace_id: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Per-name totals of the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`; spans opened before [`Tracer::exit`]
    /// is called become its children.
    pub fn enter(&mut self, name: &'static str, trace_id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::enter`] returned.
    pub fn exit(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            self.spans[idx].end_ns = self.now_ns();
            let open = self.open.pop();
            debug_assert_eq!(open, Some(idx), "spans close innermost first");
        }
    }

    /// Run `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> R) -> R {
        let token = self.enter(name, trace_id);
        let out = f();
        self.exit(token);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self-time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(child_ns[i]);
        }
        table
    }

    /// The spans as a JSON array of `{name,start,end,parent,trace_id}`
    /// (times in ns since the tracer was created; `parent` is an index
    /// into the array or `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"trace_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.trace_id
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let table = t.self_times();
        assert_eq!(table["outer"].count, 1);
        assert!(table["outer"].self_ns < table["inner"].self_ns);
        assert!(table["outer"].total_ns >= table["inner"].total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
