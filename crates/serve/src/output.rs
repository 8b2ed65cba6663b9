//! The runtime's output side: verdicts and quarantined traces behind
//! one wake.
//!
//! Every producer of output — an RCA worker sending a verdict, any
//! stage parking a trace in the [`QuarantineStore`] — bumps one wake
//! shared by the runtime *after* its output is visible. A consumer holding an
//! [`OutputHandle`] can therefore block until there is something to
//! take instead of polling at a fixed cadence, and it blocks without
//! any lock the caller holds on the runtime itself (a server that
//! serialises ingest behind such a lock keeps ingesting while its
//! writer sleeps here).
//!
//! The wake is an epoch counter, and each handle remembers the epoch
//! it last saw. [`OutputHandle::wait`] reads the epoch *before*
//! draining and sleeps only while it has not moved, so output that
//! lands between the drain and the sleep is never missed, and a bare
//! [`OutputHandle::wake`] (a stop request) is never lost either.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::quarantine::{QuarantineStore, QuarantinedTrace};
use crate::runtime::Verdict;
use crate::sync::lock_or_recover;

/// Epoch counter plus condition variable shared by every output
/// producer and consumer of one runtime.
#[derive(Debug, Default)]
pub(crate) struct OutputWake {
    state: Mutex<WakeState>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct WakeState {
    epoch: u64,
    /// Threads blocked in `wait_past`; a bump with no waiter skips the
    /// notify (and its syscall).
    waiters: usize,
}

impl OutputWake {
    /// Move the epoch and wake every waiter.
    pub(crate) fn bump(&self) {
        let mut state = lock_or_recover(&self.state, None);
        state.epoch = state.epoch.wrapping_add(1);
        let notify = state.waiters > 0;
        drop(state);
        if notify {
            self.moved.notify_all();
        }
    }

    fn epoch(&self) -> u64 {
        lock_or_recover(&self.state, None).epoch
    }

    /// Block while the epoch equals `seen`, at most `timeout`; returns
    /// the epoch on waking.
    fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let started = Instant::now();
        let mut state = lock_or_recover(&self.state, None);
        state.waiters += 1;
        while state.epoch == seen {
            let left = timeout.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            state = self
                .moved
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        state.waiters -= 1;
        state.epoch
    }
}

/// Cloneable handle onto a runtime's output: the same verdict stream
/// and quarantine that [`crate::ServeRuntime::poll_verdicts`] and
/// [`crate::ServeRuntime::poll_quarantined`] drain, taken through a
/// blocking [`OutputHandle::wait`]. Obtain one with
/// [`crate::ServeRuntime::output`]; it stays usable (and simply finds
/// nothing) after the runtime shuts down.
#[derive(Debug, Clone)]
pub struct OutputHandle {
    verdicts: Arc<Mutex<mpsc::Receiver<Verdict>>>,
    quarantine: Arc<QuarantineStore>,
    wake: Arc<OutputWake>,
    /// The epoch this handle last returned at.
    seen: u64,
}

impl OutputHandle {
    pub(crate) fn new(
        verdicts: mpsc::Receiver<Verdict>,
        quarantine: Arc<QuarantineStore>,
        wake: Arc<OutputWake>,
    ) -> Self {
        let seen = wake.epoch();
        OutputHandle {
            verdicts: Arc::new(Mutex::new(verdicts)),
            quarantine,
            wake,
            seen,
        }
    }

    /// Verdicts emitted since the last drain by any handle
    /// (non-blocking).
    pub(crate) fn poll_verdicts(&self) -> Vec<Verdict> {
        lock_or_recover(&self.verdicts, None).try_iter().collect()
    }

    /// Traces quarantined since the last drain by any handle
    /// (non-blocking).
    pub(crate) fn poll_quarantined(&self) -> Vec<QuarantinedTrace> {
        self.quarantine.drain()
    }

    /// Return the pending verdicts and quarantined traces, or — when
    /// there are none and nothing has woken this handle since its last
    /// return — block until the wake moves or `timeout` passes, then
    /// return whatever is pending (possibly nothing).
    pub fn wait(&mut self, timeout: Duration) -> (Vec<Verdict>, Vec<QuarantinedTrace>) {
        let epoch = self.wake.epoch();
        let verdicts = self.poll_verdicts();
        let quarantined = self.poll_quarantined();
        if verdicts.is_empty() && quarantined.is_empty() && epoch == self.seen {
            self.seen = self.wake.wait_past(epoch, timeout);
            return (self.poll_verdicts(), self.poll_quarantined());
        }
        self.seen = epoch;
        (verdicts, quarantined)
    }

    /// Wake every blocked [`OutputHandle::wait`] without producing
    /// output — e.g. so a consumer re-checks its stop flag.
    pub fn wake(&self) {
        self.wake.bump();
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use sleuth_core::pipeline::PipelineConfig;
    use sleuth_core::SleuthPipeline;
    use sleuth_gnn::TrainConfig;
    use sleuth_synth::presets;
    use sleuth_synth::workload::CorpusBuilder;

    use super::*;
    use crate::quarantine::QuarantineReason;
    use crate::{ServeConfig, ServeRuntime};

    /// Far longer than any test should take: a wait that runs into it
    /// means a wake was lost.
    const LONG: Duration = Duration::from_secs(60);

    fn runtime() -> ServeRuntime {
        let app = presets::synthetic(8, 1);
        let train = CorpusBuilder::new(&app)
            .seed(3)
            .normal_traces(40)
            .plain_traces();
        let config = PipelineConfig {
            train: TrainConfig {
                epochs: 2,
                batch_traces: 16,
                lr: 1e-2,
                seed: 0,
            },
            ..PipelineConfig::default()
        };
        let pipeline = Arc::new(SleuthPipeline::fit(&train, &config));
        let serve = ServeConfig {
            num_shards: 1,
            idle_timeout_us: 1_000,
            ..ServeConfig::default()
        };
        ServeRuntime::start(pipeline, serve).expect("valid config")
    }

    /// Submit a mixed workload and tick past its idle window so the
    /// RCA stage emits verdicts.
    fn feed_anomalies(rt: &ServeRuntime) {
        let app = presets::synthetic(8, 1);
        let corpus = CorpusBuilder::new(&app).seed(9).mixed_traces(24, 12);
        for (i, labelled) in corpus.traces.iter().enumerate() {
            rt.submit_batch(labelled.trace.spans().to_vec(), i as u64);
        }
        rt.tick(1_000_000);
    }

    fn poison_entry() -> QuarantinedTrace {
        QuarantinedTrace {
            trace_id: Some(7),
            span_count: 1,
            reason: QuarantineReason::Assembly("test".to_string()),
            origin_shard: Some(0),
            trace: None,
        }
    }

    #[test]
    fn output_pending_before_the_call_returns_at_once() {
        let rt = runtime();
        let mut handle = rt.output();
        feed_anomalies(&rt);
        // The epoch moves only after a verdict is sent, so once it has
        // moved a verdict is pending. Mark that wake as already seen:
        // the pending output must still be returned, without blocking.
        let deadline = Instant::now() + LONG;
        while handle.wake.epoch() == 0 {
            assert!(Instant::now() < deadline, "no verdict emitted");
            thread::yield_now();
        }
        handle.seen = handle.wake.epoch();
        let started = Instant::now();
        let (verdicts, _) = handle.wait(LONG);
        assert!(!verdicts.is_empty(), "pending verdict missed");
        assert!(
            started.elapsed() < LONG / 2,
            "blocked despite pending output"
        );
        let rest = rt.shutdown();
        assert!(rest.verdicts.iter().all(|v| !verdicts.contains(v)));
    }

    #[test]
    fn verdict_wakes_a_blocked_waiter() {
        let rt = runtime();
        let mut handle = rt.output();
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            let (verdicts, _) = handle.wait(LONG);
            (verdicts, started.elapsed())
        });
        feed_anomalies(&rt);
        let (verdicts, waited) = waiter.join().expect("waiter");
        assert!(!verdicts.is_empty(), "woken without the verdict");
        assert!(waited < LONG / 2, "verdict did not wake the waiter");
        rt.shutdown();
    }

    #[test]
    fn quarantine_put_wakes_a_blocked_waiter() {
        let rt = runtime();
        let mut handle = rt.output();
        let producer = rt.output();
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            let (_, quarantined) = handle.wait(LONG);
            (quarantined, started.elapsed())
        });
        thread::sleep(Duration::from_millis(20));
        producer.quarantine.put(poison_entry());
        let (quarantined, waited) = waiter.join().expect("waiter");
        assert_eq!(quarantined.len(), 1, "woken without the entry");
        assert_eq!(quarantined[0].trace_id, Some(7));
        assert!(waited < LONG / 2, "quarantine put did not wake the waiter");
        rt.shutdown();
    }

    #[test]
    fn idle_runtime_returns_empty_after_the_timeout() {
        let rt = runtime();
        let mut handle = rt.output();
        let timeout = Duration::from_millis(50);
        let started = Instant::now();
        let (verdicts, quarantined) = handle.wait(timeout);
        assert!(started.elapsed() >= timeout, "returned before the timeout");
        assert!(verdicts.is_empty() && quarantined.is_empty());
        rt.shutdown();
    }

    #[test]
    fn shutdown_releases_a_blocked_waiter() {
        let rt = runtime();
        let mut handle = rt.output();
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            let out = handle.wait(LONG);
            (out, started.elapsed(), handle)
        });
        thread::sleep(Duration::from_millis(20));
        let report = rt.shutdown();
        let ((verdicts, quarantined), waited, mut handle) = waiter.join().expect("waiter");
        assert!(waited < LONG / 2, "shutdown left the waiter blocked");
        assert!(verdicts.is_empty() && quarantined.is_empty());
        assert!(report.verdicts.is_empty());
        // After shutdown the handle finds nothing and still honours its
        // timeout.
        let timeout = Duration::from_millis(20);
        let started = Instant::now();
        let (verdicts, _) = handle.wait(timeout);
        assert!(verdicts.is_empty());
        assert!(started.elapsed() < LONG / 2);
    }
}
