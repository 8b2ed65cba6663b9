//! `sleuth-shardd`: one shard server process.
//!
//! Fits a pipeline deterministically from `--seed`/`--rpcs`/`--train`
//! (so every shard process — and any router that wants a reference —
//! builds the *same* model without shipping weights over the wire),
//! binds `--addr`, and runs [`sleuth::wire::serve_shard`] until a
//! router drives it through `Shutdown`.
//!
//! ```text
//! sleuth-shardd --addr unix:/tmp/shard0.sock --shard-id 0
//! sleuth-shardd --addr tcp:127.0.0.1:7401 --shard-id 1 --rpcs 12
//! ```
//!
//! On clean shutdown it prints one machine-readable `SHARDD_FINAL`
//! line (shard id, stored trace/span counts, span conservation) and
//! exits 0; any listener or protocol-fatal error exits 2.
//!
//! With `--respawn` the process becomes a *supervisor*: it spawns a
//! worker copy of itself (same flags minus the respawn ones) and, when
//! the worker dies without exiting 0 — crash, `kill -9`, conservation
//! failure — restarts it after a bounded backoff, up to
//! `--max-respawns` times, printing one `SHARDD_RESPAWN` line per
//! restart. A respawned worker rebinds the same endpoint, so a router
//! redialling the dead shard lands on the fresh process; the router's
//! verdict ledger dedups any replayed session tail.

use std::process::ExitCode;
use std::sync::Arc;

use sleuth::core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth::gnn::TrainConfig;
use sleuth::serve::{Backoff, NoFaults, ServeConfig};
use sleuth::synth::presets;
use sleuth::synth::workload::CorpusBuilder;
use sleuth::wire::{
    serve_shard, Endpoint, NoWireFaults, ShardServerConfig, WireListener, WireMetrics,
};

const USAGE: &str = "usage: sleuth-shardd --addr <tcp:HOST:PORT|unix:/PATH> [options]

options:
  --addr ENDPOINT    listen endpoint (required)
  --shard-id N       global shard index stamped on quarantine entries (default 0)
  --seed N           corpus seed for the deterministic pipeline fit (default 5)
  --rpcs N           synthetic application size in RPC kinds (default 12)
  --train N          normal traces in the training corpus (default 120)
  --epochs N         GNN training epochs (default 12)
  --idle-us N        trace idle timeout in microseconds (default 1000000)
  --respawn          supervise: restart the worker when it dies abnormally
  --max-respawns N   restart budget in supervisor mode (default 3)
  --respawn-backoff-ms N
                     base backoff between restarts, doubled per attempt
                     and capped at 8x (default 50)";

struct Args {
    addr: Endpoint,
    shard_id: usize,
    seed: u64,
    rpcs: usize,
    train: usize,
    epochs: usize,
    idle_us: u64,
    respawn: bool,
    max_respawns: u32,
    respawn_backoff_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut shard_id = 0usize;
    let mut seed = 5u64;
    let mut rpcs = 12usize;
    let mut train = 120usize;
    let mut epochs = 12usize;
    let mut idle_us = 1_000_000u64;
    let mut respawn = false;
    let mut max_respawns = 3u32;
    let mut respawn_backoff_ms = 50u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = Some(Endpoint::parse(&value("--addr")?).map_err(|e| e.to_string())?),
            "--shard-id" => shard_id = parse_num(&value("--shard-id")?, "--shard-id")?,
            "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
            "--rpcs" => rpcs = parse_num(&value("--rpcs")?, "--rpcs")?,
            "--train" => train = parse_num(&value("--train")?, "--train")?,
            "--epochs" => epochs = parse_num(&value("--epochs")?, "--epochs")?,
            "--idle-us" => idle_us = parse_num(&value("--idle-us")?, "--idle-us")?,
            "--respawn" => respawn = true,
            "--max-respawns" => max_respawns = parse_num(&value("--max-respawns")?, "--max-respawns")?,
            "--respawn-backoff-ms" => {
                respawn_backoff_ms = parse_num(&value("--respawn-backoff-ms")?, "--respawn-backoff-ms")?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("--addr is required\n{USAGE}"))?;
    Ok(Args {
        addr,
        shard_id,
        seed,
        rpcs,
        train,
        epochs,
        idle_us,
        respawn,
        max_respawns,
        respawn_backoff_ms,
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: not a number: {s}"))
}

/// The fit every process in a topology must agree on: same
/// seed/rpcs/train/epochs → bit-identical pipeline.
fn fit_pipeline(args: &Args) -> Arc<SleuthPipeline> {
    let app = presets::synthetic(args.rpcs, 1);
    let corpus = CorpusBuilder::new(&app)
        .seed(args.seed)
        .normal_traces(args.train)
        .plain_traces();
    let config = PipelineConfig {
        train: TrainConfig {
            epochs: args.epochs,
            batch_traces: 32,
            lr: 1e-2,
            seed: 0,
        },
        ..PipelineConfig::default()
    };
    Arc::new(SleuthPipeline::fit(&corpus, &config))
}

/// Supervisor mode: run worker copies of this binary (same flags minus
/// the respawn ones) until one exits 0 or the restart budget is spent.
/// A worker that dies to a signal has no exit code; both that and a
/// non-zero exit trigger a respawn. The worker rebinds the endpoint
/// itself ([`WireListener::bind`] clears stale unix socket files), and
/// binds *before* its slow pipeline fit, so a redialling router
/// reconnects as soon as the fresh process is up.
fn supervise(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sleuth-shardd: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let worker_args: Vec<String> = vec![
        "--addr".into(),
        args.addr.to_string(),
        "--shard-id".into(),
        args.shard_id.to_string(),
        "--seed".into(),
        args.seed.to_string(),
        "--rpcs".into(),
        args.rpcs.to_string(),
        "--train".into(),
        args.train.to_string(),
        "--epochs".into(),
        args.epochs.to_string(),
        "--idle-us".into(),
        args.idle_us.to_string(),
    ];
    let metrics = WireMetrics::default();
    // Bounded exponential backoff: base, 2×, 4×, then 8× base, so a
    // restart storm can't stretch detection windows unboundedly.
    let base_us = args.respawn_backoff_ms.saturating_mul(1000);
    let backoff = Backoff::new(base_us, base_us.saturating_mul(8));
    let mut attempt = 0u32;
    loop {
        let mut child = match std::process::Command::new(&exe).args(&worker_args).spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("sleuth-shardd: spawn worker: {e}");
                return ExitCode::from(2);
            }
        };
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => {
                eprintln!("sleuth-shardd: wait worker: {e}");
                return ExitCode::from(2);
            }
        };
        if status.success() {
            println!(
                "SHARDD_SUPERVISOR shard={} respawns_total={}",
                args.shard_id,
                metrics.snapshot().respawns_total
            );
            return ExitCode::SUCCESS;
        }
        if attempt >= args.max_respawns {
            eprintln!(
                "sleuth-shardd: shard {} worker died ({status}); respawn budget spent",
                args.shard_id
            );
            return ExitCode::from(status.code().unwrap_or(2).clamp(0, 255) as u8);
        }
        attempt += 1;
        metrics.respawns_total.inc();
        println!(
            "SHARDD_RESPAWN shard={} attempt={} status={}",
            args.shard_id,
            attempt,
            status.code().map_or_else(|| "signal".to_string(), |c| c.to_string()),
        );
        backoff.sleep_and_advance();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.respawn {
        return supervise(&args);
    }
    // Bind before the (slow) fit so a router polling for the socket
    // knows the process is coming up.
    let listener = match WireListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sleuth-shardd: bind {}: {e}", args.addr);
            return ExitCode::from(2);
        }
    };
    let pipeline = fit_pipeline(&args);
    println!(
        "SHARDD_READY shard={} addr={} pid={}",
        args.shard_id,
        args.addr,
        std::process::id()
    );

    let serve = ServeConfig {
        num_shards: 1,
        idle_timeout_us: args.idle_us,
        ..ServeConfig::default()
    };
    let config = ShardServerConfig::new(args.shard_id, serve);
    let metrics = Arc::new(WireMetrics::default());
    match serve_shard(
        &listener,
        pipeline,
        config,
        Arc::new(NoFaults),
        Arc::new(NoWireFaults),
        Arc::clone(&metrics),
    ) {
        Ok(final_state) => {
            let m = &final_state.metrics;
            let conserved = m.spans_submitted
                == m.spans_stored
                    + m.spans_rejected
                    + m.spans_shed
                    + m.spans_evicted
                    + m.spans_deduped
                    + m.spans_quarantined;
            println!(
                "SHARDD_FINAL shard={} traces={} spans={} submitted={} conserved={}",
                args.shard_id,
                final_state.trace_count,
                final_state.span_count,
                m.spans_submitted,
                conserved
            );
            let wire = metrics.snapshot();
            println!(
                "SHARDD_WIRE shard={} frames_sent={} frames_received={} frames_rejected={} resent={}",
                args.shard_id, wire.frames_sent, wire.frames_received, wire.frames_rejected,
                wire.frames_resent
            );
            if conserved {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sleuth-shardd: serve: {e}");
            ExitCode::from(2)
        }
    }
}
