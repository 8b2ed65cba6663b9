//! Workload definitions and seeded corpus generation.
//!
//! Every size below is a literal: nothing is calibrated at run time, so
//! two commits always receive the same inputs for the same `--seed`.
//! The model-fit seed ([`FIT_SEED`]) is separate from the traffic seed:
//! `--seed` changes what the system is asked, never how it was trained.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_gnn::TrainConfig;
use sleuth_synth::presets;
use sleuth_synth::simulator::SimulatedTrace;
use sleuth_synth::workload::CorpusBuilder;
use sleuth_trace::formats::{from_otel_json, to_otel_json, write_hex16};
use sleuth_trace::{Assembler, Trace};

/// Corpus seed every `sleuth-shardd` (and the in-harness reference)
/// fits its pipeline from. Fixed, so the model is the same on every run.
pub const FIT_SEED: u64 = 5;
/// Seed of the fault episodes every run of a workload replays.
pub const SCENARIO_SEED: u64 = 11;
/// Incidents behind the batch workload's traces.
const BATCH_INCIDENTS: usize = 6;
/// Traffic seed used when `--seed` is not given. Seed 2 is the hold-out
/// seed: never used while tuning the workload sizes.
pub const DEFAULT_SEED: u64 = 1;

/// How traffic is offered to the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Closed loop: at most `window` traces are outstanding; the next
    /// is sent as soon as the shard reports an older one collected.
    Flood { window: usize },
    /// Open loop: one trace every `1 / rate` seconds on a fixed
    /// schedule, whether or not the system keeps up.
    Paced { traces_per_s: f64 },
    /// Offline: `SleuthPipeline::analyze(.., clustered())` in-process.
    Batch,
}

/// One benchmark workload. All fields are literals in [`WORKLOADS`].
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Synthetic application size (`presets::synthetic(rpcs, 1)`).
    pub rpcs: usize,
    /// Training traces / epochs of the fit (shardd `--train/--epochs`).
    pub train: usize,
    pub epochs: usize,
    /// Distinct healthy traces in the corpus.
    pub healthy: usize,
    /// Distinct labelled anomalous traces (online: one fault episode
    /// each; batch: split evenly over 6 incidents).
    pub anomalous: usize,
    /// Out of every `mix.1` scheduled traces, `mix.0` are anomalous.
    pub mix: (usize, usize),
    pub mode: Mode,
    /// Collector idle window handed to shardd as `--idle-us`, in µs of
    /// the logical clock the harness drives.
    pub idle_us: u64,
    /// Spans after which the shard's resident memory is sampled, so
    /// `peak_rss_mb` compares equal work on every commit.
    pub rss_at_spans: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "healthy_flood",
        why: "64-RPC app, 98% healthy ~80-span traces, closed loop (32 outstanding): scan/wire/serve/store do the work, so ingest gains show here and RCA gains must not",
        rpcs: 64,
        train: 120,
        epochs: 12,
        healthy: 600,
        anomalous: 120,
        mix: (1, 50),
        mode: Mode::Flood { window: 32 },
        idle_us: 4_000,
        rss_at_spans: 1_000_000,
    },
    Spec {
        name: "storm_paced",
        why: "same app, 50% anomalous, open loop at 2000 traces/s (~40% of flood capacity): RCA share of CPU is largest here; verdict latency without queueing",
        rpcs: 64,
        train: 120,
        epochs: 12,
        healthy: 300,
        anomalous: 300,
        mix: (1, 2),
        mode: Mode::Paced { traces_per_s: 2_000.0 },
        idle_us: 4_000,
        rss_at_spans: 1_000_000,
    },
    Spec {
        name: "thousand_flood",
        why: "1100-RPC app, ~1460-span traces, 15% anomalous, closed loop (8 outstanding): the paper's large-scale regime, 140 KB frames, pruning decides RCA cost",
        rpcs: 1100,
        train: 60,
        epochs: 8,
        healthy: 200,
        anomalous: 60,
        mix: (3, 20),
        mode: Mode::Flood { window: 8 },
        idle_us: 4_000,
        rss_at_spans: 1_500_000,
    },
    Spec {
        name: "incident_batch",
        why: "offline clustered analyze of 600 anomalous traces from 6 incidents on one thread: cluster gains show only here; scan, wire and serve are bypassed",
        rpcs: 64,
        train: 120,
        epochs: 12,
        healthy: 0,
        anomalous: 600,
        mix: (1, 1),
        mode: Mode::Batch,
        idle_us: 0,
        rss_at_spans: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fit every process agrees on — the same code path as
/// `sleuth-shardd`'s `fit_pipeline`, so the in-harness reference is
/// bit-identical to the model inside the shard.
pub fn fit_reference(spec: &Spec) -> SleuthPipeline {
    let app = presets::synthetic(spec.rpcs, 1);
    let corpus = CorpusBuilder::new(&app)
        .seed(FIT_SEED)
        .normal_traces(spec.train)
        .plain_traces();
    let config = PipelineConfig {
        train: TrainConfig {
            epochs: spec.epochs,
            batch_traces: 32,
            lr: 1e-2,
            seed: 0,
        },
        ..PipelineConfig::default()
    };
    SleuthPipeline::fit(&corpus, &config)
}

/// One distinct trace of the corpus.
pub struct Item {
    /// Pre-rendered OTLP JSON bytes of the trace; every `traceId` field
    /// holds 16 hex digits that [`Item::stamp`] overwrites per send.
    pub json: Vec<u8>,
    /// Byte offsets of those 16-digit fields.
    id_offsets: Vec<usize>,
    /// The trace as the shard will assemble it (from the same JSON).
    pub trace: Trace,
    /// Ground-truth root-cause services; empty for healthy traces.
    pub truth: Vec<String>,
}

impl Item {
    /// Give the rendered document a fresh trace id.
    pub fn stamp(&mut self, trace_id: u64, hex: &mut String) {
        hex.clear();
        write_hex16(trace_id, hex);
        for &at in &self.id_offsets {
            self.json[at..at + 16].copy_from_slice(hex.as_bytes());
        }
    }

    pub fn spans(&self) -> usize {
        self.trace.len()
    }
}

/// The seeded inputs of one run: `healthy` healthy items followed by
/// the labelled anomalous ones.
pub struct Corpus {
    pub items: Vec<Item>,
    healthy: usize,
    mix: (usize, usize),
}

impl Corpus {
    /// The item sent as the `seq`-th trace of a run. Each block of
    /// `mix.1` sends starts with `mix.0` anomalous traces; both pools
    /// are cycled independently, so every item recurs with fresh ids.
    pub fn item_at(&self, seq: u64) -> usize {
        let (anom_per_block, block_len) = (self.mix.0 as u64, self.mix.1 as u64);
        let (block, pos) = (seq / block_len, seq % block_len);
        let anomalous = (self.items.len() - self.healthy) as u64;
        if pos < anom_per_block || self.healthy == 0 {
            self.healthy + ((block * anom_per_block + pos) % anomalous) as usize
        } else {
            let nth = block * (block_len - anom_per_block) + (pos - anom_per_block);
            (nth % self.healthy as u64) as usize
        }
    }
}

const ID_KEY: &str = "\"traceId\": \"";

fn render(trace: &Trace, truth: Vec<String>, assembler: &mut Assembler) -> Item {
    let json = to_otel_json(trace.spans());
    let id_offsets: Vec<usize> = json
        .match_indices(ID_KEY)
        .map(|(at, _)| at + ID_KEY.len())
        .collect();
    assert_eq!(id_offsets.len(), trace.len(), "one traceId field per span");
    let spans = from_otel_json(&json).expect("rendered OTLP parses");
    let trace = assembler.assemble(spans).expect("rendered trace assembles");
    Item {
        json: json.into_bytes(),
        id_offsets,
        trace,
        truth,
    }
}

/// Build the corpus for `spec` from the traffic `seed`.
///
/// The fault episodes are part of the workload's definition, like the
/// application topology: they come from [`SCENARIO_SEED`], so every
/// seed faces the same incidents and `rca_top1` compares like with
/// like. `seed` draws the healthy traffic and the order in which the
/// incidents' traces are replayed. Online workloads take one trace from
/// each of `anomalous` episodes; the batch workload takes
/// `anomalous / 6` traces from each of 6 incidents, so clustering has
/// structure to find.
pub fn build_corpus(spec: &Spec, seed: u64) -> Corpus {
    let app = presets::synthetic(spec.rpcs, 1);
    let mut assembler = Assembler::new();
    let mut items = Vec::with_capacity(spec.healthy + spec.anomalous);
    // Offset so no traffic seed collides with the fit corpus.
    let traffic = CorpusBuilder::new(&app).seed(seed.wrapping_add(0x5eed_0000));
    for t in traffic.normal_traces(spec.healthy).traces {
        items.push(render(&t.trace, Vec::new(), &mut assembler));
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7069_636b);
    let scenario = CorpusBuilder::new(&app).seed(SCENARIO_SEED);
    let mut chosen: Vec<SimulatedTrace> = Vec::with_capacity(spec.anomalous);
    match spec.mode {
        Mode::Batch => {
            let per_incident = spec.anomalous / BATCH_INCIDENTS;
            // An incident batch is a fixed forensic artefact: the seed
            // only permutes it (clustering must not care about order).
            let pools = scenario
                .anomaly_queries(2 * BATCH_INCIDENTS, 20 * per_incident)
                .into_iter()
                .filter(|q| q.traces.len() >= per_incident)
                .take(BATCH_INCIDENTS);
            for q in pools {
                chosen.extend(q.traces.into_iter().take(per_incident));
            }
            chosen.shuffle(&mut rng);
        }
        _ => {
            // One trace per episode; the seed decides their order.
            chosen.extend(
                scenario
                    .anomaly_queries(spec.anomalous, 8)
                    .into_iter()
                    .filter_map(|q| q.traces.into_iter().next()),
            );
            chosen.shuffle(&mut rng);
        }
    }
    assert_eq!(
        chosen.len(),
        spec.anomalous,
        "{}: the scenario yields every anomalous trace",
        spec.name
    );
    for t in chosen {
        let truth = t.ground_truth.services.iter().cloned().collect();
        items.push(render(&t.trace, truth, &mut assembler));
    }
    Corpus {
        items,
        healthy: spec.healthy,
        mix: spec.mix,
    }
}
