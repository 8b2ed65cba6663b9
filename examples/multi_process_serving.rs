//! Multi-process sharded serving: a router in this process, two real
//! `sleuth-shardd` child processes over Unix-domain sockets.
//!
//! ```text
//! cargo build --release --bins
//! cargo run --release --example multi_process_serving
//! ```
//!
//! Each shard process fits the same pipeline deterministically from
//! its CLI seed (no weights cross the wire), the router places span
//! batches with the same rendezvous hashing (`owner_of`) the
//! in-process runtime uses, so a shard's death would move only its
//! keys, and at shutdown the merged metrics must balance span
//! conservation across process boundaries — the same audit `scripts/tier1.sh`
//! enforces in its loopback smoke test.
//!
//! Override the shard binary with `SLEUTH_SHARDD=/path/to/sleuth-shardd`
//! (defaults to the binary built next to this example).

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sleuth::synth::presets;
use sleuth::synth::workload::CorpusBuilder;
use sleuth::trace::Span;
use sleuth::wire::{Endpoint, RouterClient, RouterConfig};

const SHARDS: usize = 2;

/// Kills the children if the example dies before the clean shutdown.
struct Fleet {
    children: Vec<(usize, Child)>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn shardd_binary() -> PathBuf {
    if let Ok(path) = std::env::var("SLEUTH_SHARDD") {
        return PathBuf::from(path);
    }
    // target/<profile>/examples/multi_process_serving -> target/<profile>/sleuth-shardd
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("examples dir inside a target profile dir");
    profile_dir.join("sleuth-shardd")
}

fn main() {
    let binary = shardd_binary();
    if !binary.exists() {
        eprintln!(
            "shard binary not found at {} — run `cargo build --release --bins` first \
             or set SLEUTH_SHARDD",
            binary.display()
        );
        std::process::exit(2);
    }

    // ---- Spawn the shard fleet --------------------------------------
    let mut endpoints = Vec::new();
    let mut fleet = Fleet {
        children: Vec::new(),
    };
    for shard_id in 0..SHARDS {
        let sock = std::env::temp_dir().join(format!(
            "sleuth-example-{}-{shard_id}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(&binary)
            .args(["--addr", &format!("unix:{}", sock.display())])
            .args(["--shard-id", &shard_id.to_string()])
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn sleuth-shardd");
        println!(
            "spawned shard {shard_id} (pid {}) on {}",
            child.id(),
            sock.display()
        );
        fleet.children.push((shard_id, child));
        endpoints.push(Endpoint::Unix(sock));
    }

    // ---- Connect the router (retries cover the children's fit) ------
    let mut config = RouterConfig::new(endpoints);
    config.reconnect_attempts = 200;
    let start = Instant::now();
    let mut router = RouterClient::connect(config).expect("connect to shard fleet");
    assert!(router.dead_peers().is_empty(), "a shard never came up");
    println!(
        "router connected to {} shards in {:?}",
        router.num_shards(),
        start.elapsed()
    );

    // ---- Drive a mixed workload through the fleet -------------------
    let app = presets::synthetic(12, 1);
    let batches: Vec<Vec<Span>> = CorpusBuilder::new(&app)
        .seed(5)
        .mixed_traces(64, 8)
        .traces
        .into_iter()
        .map(|t| t.trace.spans().to_vec())
        .collect();
    let total: usize = batches.iter().map(Vec::len).sum();
    let mut clock = 0u64;
    for batch in batches {
        clock += 1_000;
        router.submit_batch(batch, clock);
    }
    router.tick(clock + 10_000_000);

    // A control round trip while traffic is live: hot-swap drill.
    let versions = router.publish_all();
    println!("published pipeline versions: {versions:?}");

    // ---- Shut down and audit ----------------------------------------
    let report = router.shutdown();
    let m = &report.metrics;
    println!(
        "verdicts={} (degraded {}), quarantined={}, spans routed={} unroutable={}",
        report.verdicts.len(),
        report.verdicts.iter().filter(|v| v.degraded).count(),
        report.quarantined.len(),
        report.wire.spans_routed,
        report.wire.spans_unroutable,
    );
    for (idx, final_state) in report.shard_finals.iter().enumerate() {
        match final_state {
            Some(f) => println!(
                "  shard {idx}: {} traces, {} spans, {} submitted",
                f.trace_count, f.span_count, f.metrics.spans_submitted
            ),
            None => println!("  shard {idx}: no final state (dead)"),
        }
    }
    assert_eq!(report.dead_peers, Vec::<usize>::new(), "no shard may die");
    assert_eq!(
        m.spans_submitted, total as u64,
        "every span reaches a shard"
    );
    assert_eq!(
        m.spans_submitted,
        m.spans_stored
            + m.spans_rejected
            + m.spans_shed
            + m.spans_evicted
            + m.spans_deduped
            + m.spans_quarantined,
        "cross-process span conservation"
    );

    // ---- Reap the children: clean exits, no orphans -----------------
    // Pop children one at a time so any not yet reaped stay owned by
    // the fleet: a panic mid-loop (or the panic below) still runs the
    // Drop guard, which kills and waits the remainder.
    let deadline = Instant::now() + Duration::from_secs(30);
    while let Some((shard_id, mut child)) = fleet.children.pop() {
        let status = loop {
            match child.try_wait().expect("try_wait") {
                Some(status) => break status,
                None if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("shard {shard_id} did not exit after shutdown");
                }
            }
        };
        assert!(status.success(), "shard {shard_id} exited with {status}");
        println!("shard {shard_id} exited cleanly");
    }
    println!("multi-process serving: conservation balanced across {SHARDS} processes");
}
