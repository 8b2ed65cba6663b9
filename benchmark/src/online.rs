//! The online driver: OTLP bytes in → verdicts out.
//!
//! One submitter thread does what `sleuth-routerd` does — parse OTLP
//! JSON, route, frame, write — against a [`Sink`]: the real shard
//! process behind a [`RouterClient`], or (for the per-layer comparison)
//! an in-process [`ServeRuntime`] with the same configuration.

use std::time::{Duration, Instant};

use sleuth_serve::{MetricsSnapshot, ServeRuntime, Verdict};
use sleuth_trace::formats::from_otel_json;
use sleuth_trace::Span;
use sleuth_wire::RouterClient;

use crate::sut;
use crate::tracer::Tracer;
use crate::workload::{Corpus, Mode, Spec};

/// Logical µs the flood clock advances per trace sent: with
/// `idle_us = 4000` a trace closes when the 4th later batch arrives.
/// The paced clock advances by the send period instead, so logical
/// time is scheduled wall time.
const FLOOD_STEP_US: u64 = 1_000;
/// How long the drain waits for stragglers before counting them missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Sleep between verdict polls while idle; keeps poll gaps under 200 µs
/// without spinning a core the shard needs.
const POLL_SLEEP: Duration = Duration::from_micros(80);
/// Slices the timed section is cut into.
const SLICES: u32 = 10;

pub trait Sink {
    fn submit(&mut self, spans: Vec<Span>, now_us: u64);
    fn tick(&mut self, now_us: u64);
    fn poll_verdicts(&mut self) -> Vec<Verdict>;
    /// The shard's own metrics; `None` when it no longer answers.
    fn snapshot(&mut self) -> Option<MetricsSnapshot>;
}

impl Sink for RouterClient {
    fn submit(&mut self, spans: Vec<Span>, now_us: u64) {
        self.submit_batch(spans, now_us);
    }
    fn tick(&mut self, now_us: u64) {
        RouterClient::tick(self, now_us);
    }
    fn poll_verdicts(&mut self) -> Vec<Verdict> {
        RouterClient::poll_verdicts(self)
    }
    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.fetch_metrics().into_iter().next().flatten()
    }
}

impl Sink for ServeRuntime {
    fn submit(&mut self, spans: Vec<Span>, now_us: u64) {
        self.submit_batch(spans, now_us);
    }
    fn tick(&mut self, now_us: u64) {
        ServeRuntime::tick(self, now_us);
    }
    fn poll_verdicts(&mut self) -> Vec<Verdict> {
        ServeRuntime::poll_verdicts(self)
    }
    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        Some(self.metrics().snapshot())
    }
}

/// Operations that did not end the way a correct system ends them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub spans_rejected: u64,
    pub spans_shed: u64,
    pub spans_evicted: u64,
    pub spans_deduped: u64,
    pub spans_quarantined: u64,
    /// Spans the shard never accounted for in any counter.
    pub spans_unaccounted: u64,
    /// Expected verdicts that did not arrive before the drain timeout.
    pub verdicts_missing: u64,
    pub verdicts_duplicate: u64,
    pub verdicts_degraded: u64,
    /// Verdicts whose services differ from the reference pipeline's,
    /// or that the reference does not emit at all.
    pub verdicts_mismatched: u64,
}

impl Failures {
    /// Every count with its name, for totals and for the detail line.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("spans_rejected", self.spans_rejected),
            ("spans_shed", self.spans_shed),
            ("spans_evicted", self.spans_evicted),
            ("spans_deduped", self.spans_deduped),
            ("spans_quarantined", self.spans_quarantined),
            ("spans_unaccounted", self.spans_unaccounted),
            ("verdicts_missing", self.verdicts_missing),
            ("verdicts_duplicate", self.verdicts_duplicate),
            ("verdicts_degraded", self.verdicts_degraded),
            ("verdicts_mismatched", self.verdicts_mismatched),
        ]
    }

    pub fn total(&self) -> u64 {
        self.fields().iter().map(|(_, n)| n).sum()
    }

    pub fn add(&mut self, o: &Failures) {
        self.spans_rejected += o.spans_rejected;
        self.spans_shed += o.spans_shed;
        self.spans_evicted += o.spans_evicted;
        self.spans_deduped += o.spans_deduped;
        self.spans_quarantined += o.spans_quarantined;
        self.spans_unaccounted += o.spans_unaccounted;
        self.verdicts_missing += o.verdicts_missing;
        self.verdicts_duplicate += o.verdicts_duplicate;
        self.verdicts_degraded += o.verdicts_degraded;
        self.verdicts_mismatched += o.verdicts_mismatched;
    }
}

/// What one timed segment measured.
#[derive(Default)]
pub struct Outcome {
    pub traces: u64,
    pub spans: u64,
    pub bytes: u64,
    pub verdicts_expected: u64,
    /// First submit → every span accounted for and every expected
    /// verdict received.
    pub wall_s: f64,
    /// Due-to-close → verdict returned by `poll_verdicts`, per verdict.
    pub latency_ms: Vec<f64>,
    /// `Verdict::rca_latency_us` as the shard measured it.
    pub rca_us: Vec<f64>,
    pub failures: Failures,
    /// Labelled anomalous traces sent / of those, verdicts whose first
    /// service is in the ground truth.
    pub labelled: u64,
    pub top1_hits: u64,
    /// Verdicts on traces with no injected fault (the detector's own
    /// false alarms; identical in the reference, so not failures).
    pub false_alarms: u64,
    /// Time the generator spent on its own work (id stamping).
    pub gen_busy_s: f64,
    /// Paced mode: how late each send started after its schedule.
    pub late_ms: Vec<f64>,
    pub poll_gap_max_us: f64,
    pub poll_gaps_over_200us: u64,
    pub polls: u64,
    /// Last scheduled send → drained; a growing backlog shows here.
    pub drain_ms: f64,
    /// Shard `VmHWM` once `rss_at_spans` spans had been submitted.
    pub rss_mb: Option<f64>,
    pub rss_checkpoint_reached: bool,
    /// The timed section cut into [`SLICES`] equal parts. Medians over
    /// slices shrug off a transient stall that a whole-run mean absorbs.
    pub slices: Vec<Slice>,
    pub snapshot: MetricsSnapshot,
}

/// What was sent, and the CPU both processes used, during one slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    pub spans: u64,
    /// Router + shard CPU; 0 when no shard process is observed.
    pub cpu_ns: u64,
}

impl Outcome {
    /// Median over slices of spans sent per second.
    pub fn slice_spans_per_s(&self) -> Option<f64> {
        let mut v: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.spans as f64 / s.wall_s)
            .collect();
        crate::stats::median(&mut v)
    }

    /// Median over slices of CPU µs per span sent.
    pub fn slice_cpu_us_per_span(&self) -> Option<f64> {
        let mut v: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.spans > 0)
            .map(|s| s.cpu_ns as f64 / s.spans as f64 / 1e3)
            .collect();
        crate::stats::median(&mut v)
    }
}

/// State that persists across the segments of one run: trace ids keep
/// increasing (no dedup), the logical clock keeps advancing.
pub struct Session<'a> {
    pub spec: &'a Spec,
    pub corpus: &'a mut Corpus,
    /// Reference verdict per corpus item (`None`: not anomalous).
    pub expected: &'a [Option<Vec<String>>],
    /// The shard process to sample CPU and `VmHWM` from (pid as text).
    pub shard_pid: Option<String>,
    seq: u64,
    clock_us: u64,
    spans_total: u64,
    rss_mb: Option<f64>,
    hex: String,
}

impl<'a> Session<'a> {
    pub fn new(
        spec: &'a Spec,
        corpus: &'a mut Corpus,
        expected: &'a [Option<Vec<String>>],
        shard_pid: Option<String>,
    ) -> Self {
        Session {
            spec,
            corpus,
            expected,
            shard_pid,
            seq: 0,
            clock_us: 0,
            spans_total: 0,
            rss_mb: None,
            hex: String::with_capacity(16),
        }
    }

    /// Logical µs per trace sent.
    fn step_us(&self) -> u64 {
        match self.spec.mode {
            Mode::Paced { traces_per_s } => (1e6 / traces_per_s).round() as u64,
            _ => FLOOD_STEP_US,
        }
    }

    /// Offer traffic for `seconds`, then drain and account.
    pub fn run(
        &mut self,
        sink: &mut dyn Sink,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<Outcome, String> {
        let step_us = self.step_us();
        // Sends a batch must be followed by before its trace closes.
        let lag = self.spec.idle_us.div_ceil(step_us);
        let base = sink
            .snapshot()
            .ok_or("shard does not answer a metrics request")?;
        let mut seg = Segment {
            first_seq: self.seq,
            lag,
            due: Vec::new(),
            tick_at: None,
            seen: Vec::new(),
            verdicts_in: 0,
            last_poll: None,
            out: Outcome::default(),
        };
        let mut completed_known = base.traces_completed;
        let cpu_now = |pid: &Option<String>| -> Result<u64, String> {
            match pid {
                Some(pid) => Ok(sut::cpu_total_ns("self")? + sut::cpu_total_ns(pid)?),
                None => Ok(0),
            }
        };

        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let slice_len = Duration::from_secs_f64(seconds / f64::from(SLICES));
        let mut slice_mark = (started, 0u64, cpu_now(&self.shard_pid)?);
        let period = match self.spec.mode {
            Mode::Paced { traces_per_s } => Some(Duration::from_secs_f64(1.0 / traces_per_s)),
            _ => None,
        };
        let window = match self.spec.mode {
            Mode::Flood { window } => window as u64,
            _ => u64::MAX,
        };

        loop {
            // ---- wait for the slot -------------------------------------
            let due_at = match period {
                Some(p) => {
                    let sched = started + p.mul_f64(seg.due.len() as f64);
                    if sched >= deadline {
                        break;
                    }
                    while Instant::now() < sched {
                        self.poll(sink, tracer, &mut seg);
                        let left = sched.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(POLL_SLEEP));
                    }
                    seg.out.late_ms.push(sched.elapsed().as_secs_f64() * 1e3);
                    sched
                }
                None => {
                    if Instant::now() >= deadline {
                        break;
                    }
                    // `lag` of the sent-but-uncollected traces are
                    // legitimately still open; the rest are queued.
                    if self.seq - completed_known >= window + lag {
                        let token = tracer.enter("router.window_wait", 0);
                        loop {
                            completed_known = sink
                                .snapshot()
                                .ok_or("shard stopped answering mid-run")?
                                .traces_completed;
                            if self.seq - completed_known < window + lag {
                                break;
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        tracer.exit(token);
                    }
                    Instant::now()
                }
            };
            seg.due.push(due_at);
            seg.seen.push(false);

            // ---- one trace: bytes in → frame out -----------------------
            let trace_id = self.seq + 1;
            let idx = self.corpus.item_at(self.seq);
            let send = tracer.enter("router.send", trace_id);
            let t = Instant::now();
            self.corpus.items[idx].stamp(trace_id, &mut self.hex);
            seg.out.gen_busy_s += t.elapsed().as_secs_f64();
            let item = &self.corpus.items[idx];
            let spans = tracer.span("trace.scan", trace_id, || {
                let text = std::str::from_utf8(&item.json).expect("OTLP document is UTF-8");
                from_otel_json(text).expect("OTLP document parses")
            });
            debug_assert_eq!(spans.len(), item.spans());
            self.clock_us += step_us;
            let now_us = self.clock_us;
            tracer.span("wire.submit_batch", trace_id, || sink.submit(spans, now_us));
            tracer.exit(send);

            let out = &mut seg.out;
            out.traces += 1;
            out.spans += item.spans() as u64;
            out.bytes += item.json.len() as u64;
            out.verdicts_expected += u64::from(self.expected[idx].is_some());
            out.labelled += u64::from(!item.truth.is_empty());
            self.spans_total += item.spans() as u64;
            self.seq += 1;

            if self.rss_mb.is_none() && self.spans_total >= self.spec.rss_at_spans {
                if let Some(pid) = &self.shard_pid {
                    // The reply is ordered after every batch sent so
                    // far, so the shard has at least read them all.
                    sink.snapshot().ok_or("shard stopped answering mid-run")?;
                    self.rss_mb = Some(sut::peak_rss_mb(pid)?);
                    out.rss_checkpoint_reached = true;
                }
            }
            self.poll(sink, tracer, &mut seg);

            let (since, spans_then, cpu_then) = slice_mark;
            if since.elapsed() >= slice_len {
                let (now, cpu) = (Instant::now(), cpu_now(&self.shard_pid)?);
                seg.out.slices.push(Slice {
                    wall_s: now.duration_since(since).as_secs_f64(),
                    spans: seg.out.spans - spans_then,
                    cpu_ns: cpu - cpu_then,
                });
                slice_mark = (now, seg.out.spans, cpu);
            }
        }

        // ---- drain: close the tail, wait for every verdict ------------
        let last_sched = match period {
            Some(p) => started + p.mul_f64(seg.due.len() as f64),
            None => Instant::now(),
        };
        seg.tick_at = Some(last_sched);
        self.clock_us += 10 * self.spec.idle_us.max(step_us);
        tracer.span("wire.tick", 0, || sink.tick(self.clock_us));
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while seg.verdicts_in < seg.out.verdicts_expected && Instant::now() < give_up {
            self.poll(sink, tracer, &mut seg);
            std::thread::sleep(POLL_SLEEP);
        }
        let spans_target = base.spans_stored + seg.out.spans;
        let snap = loop {
            let snap = sink
                .snapshot()
                .ok_or("shard stopped answering during the drain")?;
            if snap.spans_stored >= spans_target || Instant::now() >= give_up {
                break snap;
            }
            std::thread::sleep(POLL_SLEEP);
        };
        let mut out = seg.out;
        out.wall_s = started.elapsed().as_secs_f64();
        out.drain_ms = last_sched.elapsed().as_secs_f64() * 1e3;

        // ---- account ---------------------------------------------------
        let f = &mut out.failures;
        f.spans_rejected = snap.spans_rejected - base.spans_rejected;
        f.spans_shed = snap.spans_shed - base.spans_shed;
        f.spans_evicted = snap.spans_evicted - base.spans_evicted;
        f.spans_deduped = snap.spans_deduped - base.spans_deduped;
        f.spans_quarantined = snap.spans_quarantined - base.spans_quarantined;
        let accounted = (snap.spans_stored - base.spans_stored)
            + f.spans_rejected
            + f.spans_shed
            + f.spans_evicted
            + f.spans_deduped
            + f.spans_quarantined;
        f.spans_unaccounted = out.spans.saturating_sub(accounted);
        for (k, got) in seg.seen.iter().enumerate() {
            let idx = self.corpus.item_at(seg.first_seq + k as u64);
            if !got && self.expected[idx].is_some() {
                f.verdicts_missing += 1;
            }
        }
        if self.rss_mb.is_none() {
            if let Some(pid) = &self.shard_pid {
                self.rss_mb = Some(sut::peak_rss_mb(pid)?);
            }
        }
        out.rss_mb = self.rss_mb;
        out.snapshot = snap;
        Ok(out)
    }

    /// Collect verdicts, timestamp them, and check each against the
    /// reference.
    fn poll(&self, sink: &mut dyn Sink, tracer: &mut Tracer, seg: &mut Segment) {
        let verdicts = tracer.span("wire.poll_verdicts", 0, || sink.poll_verdicts());
        let now = Instant::now();
        let out = &mut seg.out;
        if let Some(prev) = seg.last_poll.replace(now) {
            let gap_us = now.duration_since(prev).as_secs_f64() * 1e6;
            out.poll_gap_max_us = out.poll_gap_max_us.max(gap_us);
            out.poll_gaps_over_200us += u64::from(gap_us > 200.0);
        }
        out.polls += 1;
        for v in verdicts {
            seg.verdicts_in += 1;
            let Some(k) = v
                .trace_id
                .checked_sub(seg.first_seq + 1)
                .filter(|&k| (k as usize) < seg.seen.len())
            else {
                out.failures.verdicts_mismatched += 1;
                continue;
            };
            if std::mem::replace(&mut seg.seen[k as usize], true) {
                out.failures.verdicts_duplicate += 1;
                continue;
            }
            let idx = self.corpus.item_at(seg.first_seq + k);
            let item = &self.corpus.items[idx];
            // The batch `lag` sends later closed this trace; the tail of
            // the segment is closed by the final tick.
            if let Some(closing) = seg.due.get((k + seg.lag) as usize).copied().or(seg.tick_at) {
                out.latency_ms
                    .push(now.saturating_duration_since(closing).as_secs_f64() * 1e3);
            }
            out.rca_us.push(v.rca_latency_us as f64);
            if item.truth.is_empty() {
                out.false_alarms += 1;
            } else if v.services.first().is_some_and(|s| item.truth.contains(s)) {
                out.top1_hits += 1;
            }
            if v.degraded {
                out.failures.verdicts_degraded += 1;
            } else if self.expected[idx].as_ref() != Some(&v.services) {
                out.failures.verdicts_mismatched += 1;
            }
        }
    }
}

/// Bookkeeping of the segment in flight.
struct Segment {
    first_seq: u64,
    lag: u64,
    /// `due[k]`: when the `k`-th send of the segment was due.
    due: Vec<Instant>,
    /// When the closing tick was due; set once the drain starts.
    tick_at: Option<Instant>,
    /// Whether the `k`-th trace's verdict has arrived.
    seen: Vec<bool>,
    verdicts_in: u64,
    last_poll: Option<Instant>,
    out: Outcome,
}
