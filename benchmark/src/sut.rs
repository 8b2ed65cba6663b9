//! The system under test as a separate process: build the real
//! `sleuth-shardd`, spawn it, and observe it from outside via `/proc`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::workload::{Spec, FIT_SEED};

/// Directory (relative to the checkout root the benchmark is run from)
/// for sockets and the trace dump. Relative, so the Unix socket path
/// stays short however deep the checkout is.
pub const OUT_DIR: &str = "benchmark/out";

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
}

/// Build `sleuth-shardd` from the repository in the current directory
/// with the release profile and return the executable's path. A no-op
/// after the first run in a checkout; run every time so a stale binary
/// is never measured.
pub fn build_shardd() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/sleuth-shardd.rs").is_file() {
        return Err("run from the repository root: sleuth-shardd's sources are not here".into());
    }
    let target = target_dir();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "sleuth-shardd",
            "--target-dir",
        ])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sleuth-shardd failed ({status})"));
    }
    let exe = target.join("release").join("sleuth-shardd");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} was not produced", exe.display()))
    }
}

/// A running `sleuth-shardd` child. Dropping it kills the process and
/// removes its socket, so panics in the harness leave nothing behind.
pub struct Shardd {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    /// Every flag the process was started with.
    pub flags: Vec<String>,
    /// Spawn → `SHARDD_READY` (bind + deterministic pipeline fit).
    pub setup_s: f64,
}

impl Shardd {
    pub fn spawn(exe: &Path, spec: &Spec, tag: &str) -> Result<Shardd, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{OUT_DIR}/{tag}-{}.sock", std::process::id()));
        let flags: Vec<String> = [
            ("--addr", format!("unix:{}", socket.display())),
            ("--shard-id", "0".into()),
            ("--seed", FIT_SEED.to_string()),
            ("--rpcs", spec.rpcs.to_string()),
            ("--train", spec.train.to_string()),
            ("--epochs", spec.epochs.to_string()),
            ("--idle-us", spec.idle_us.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(&flags)
            .env_remove("SLEUTH_THREADS") // an ambient setting must not change the system under test
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut shard = Shardd {
            child,
            stdout,
            socket,
            flags,
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match shard.stdout.read_line(&mut line) {
                Ok(0) => return Err("sleuth-shardd exited before SHARDD_READY".into()),
                Ok(_) if line.starts_with("SHARDD_READY") => break,
                Ok(_) => {}
                Err(e) => return Err(format!("reading sleuth-shardd stdout: {e}")),
            }
        }
        shard.setup_s = started.elapsed().as_secs_f64();
        Ok(shard)
    }

    pub fn endpoint(&self) -> String {
        format!("unix:{}", self.socket.display())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// After the router drove the shard through `Shutdown`: wait for the
    /// exit status and return the `SHARDD_*` audit lines it printed.
    pub fn finish(mut self) -> Result<Vec<String>, String> {
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        let lines: Vec<String> = (&mut self.stdout).lines().map_while(Result::ok).collect();
        if status.success() {
            Ok(lines)
        } else {
            Err(format!("sleuth-shardd exited with {status}: {lines:?}"))
        }
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        // Already-exited children make both calls harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// CPU time in ns per thread name of process `pid` (`"self"` for this
/// one), summed over the threads currently alive, from the scheduler's
/// own accounting (`/proc/<pid>/task/*/schedstat`). The process's first
/// thread is reported as `main`, whatever its name.
pub fn cpu_by_thread(pid: &str) -> Result<BTreeMap<String, u64>, String> {
    let dir = format!("/proc/{pid}/task");
    let main_tid = if pid == "self" {
        std::process::id().to_string()
    } else {
        pid.to_string()
    };
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let task = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(task.join("comm")),
            std::fs::read_to_string(task.join("schedstat")),
        ) else {
            continue;
        };
        let ns: u64 = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{}: unexpected schedstat {stat:?}", task.display()))?;
        let is_main = task.file_name().is_some_and(|tid| tid == main_tid.as_str());
        let name = if is_main { "main" } else { comm.trim() };
        *out.entry(name.to_string()).or_insert(0) += ns;
    }
    Ok(out)
}

pub fn cpu_total_ns(pid: &str) -> Result<u64, String> {
    Ok(cpu_by_thread(pid)?.values().sum())
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Fault in `mb` MB of memory and give it back to the kernel.
///
/// On the VMs this runs on, a guest page the host has not backed yet
/// costs ~12 µs to fault (about 50x a warm one), and whether a run's
/// growing trace store lands on backed pages depended on what happened
/// to be freed just before — ±5% on `spans_per_s` between identical
/// runs. Touching the pages right before the timed section makes the
/// kernel hand out backed pages in every run.
pub fn prefault(mb: usize) {
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}
