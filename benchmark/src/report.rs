//! Output: the result line the driver reads, the human report, and the
//! multi-run modes (every workload; `--selfcheck`).

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::{Map, Number, Value};

use sleuth_core::pipeline::AnalyzeOptions;
use sleuth_trace::Trace;

use crate::e2e::{self, Metric, RunResult};
use crate::stats;
use crate::sut::OUT_DIR;
use crate::tracer::Tracer;
use crate::workload::{self, Mode, Spec, FIT_SEED, WORKLOADS};
use crate::Args;

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in entries {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn metrics_object(metrics: &[Metric]) -> Value {
    object(metrics.iter().map(|m| {
        let entry = object([("value", num(m.value)), ("unit", text(m.unit))]);
        (m.name, entry)
    }))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What was measured, on what: recorded next to every result.
fn environment() -> Value {
    object([
        // A driver checkout is not a git repository; then the commit is
        // whatever the driver says it checked out.
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", int(nproc() as u64)),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("fit_seed", int(FIT_SEED)),
    ])
}

fn print_human(spec: &Spec, args: &Args, result: &RunResult, tracer: Option<&Tracer>) {
    eprintln!(
        "== {} seed={} seconds={} trace={} ({:?})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.mode
    );
    for m in result.metrics.iter().chain(&result.info) {
        eprintln!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  attempted={} failed={} correct={} {:?}",
        result.attempted,
        result.failures.total(),
        result.correct(),
        result.failures
    );
    for e in &result.errors {
        eprintln!("  ERROR {e}");
    }
    if let Some(tracer) = tracer {
        eprintln!(
            "  {:<28} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, row) in tracer.self_times() {
            eprintln!(
                "  {:<28} {:>9} {:>14.3} {:>14.3}",
                name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }
}

/// The run must report exactly the metrics `BENCHMARK.json` names for
/// its mode, and the workload must be listed there.
fn check_contract(spec: &Spec, trace: bool, metrics: &[Metric]) -> Result<(), String> {
    let doc = contract()?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        let list = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?;
        Ok(list
            .iter()
            .filter_map(|m| m.as_object()?.get("name")?.as_str().map(str::to_string))
            .collect())
    };
    if !names("workloads")?.iter().any(|w| w == spec.name) {
        return Err(format!(
            "BENCHMARK.json does not list workload {}",
            spec.name
        ));
    }
    let mut wanted = names(if trace { "per_layer" } else { "end_to_end" })?;
    let mut got: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    wanted.sort();
    got.sort();
    if wanted == got {
        Ok(())
    } else {
        Err(format!(
            "metrics out of step with BENCHMARK.json: reported {got:?}, contract {wanted:?}"
        ))
    }
}

/// One run, as the driver invokes it.
pub fn single_run(spec: &Spec, args: &Args) -> Result<bool, String> {
    let (mut result, tracer) = e2e::run(spec, args.seed, args.seconds, args.trace)?;
    check_contract(spec, args.trace, &result.metrics)?;
    if let Some(tracer) = &tracer {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace.json");
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
        if spec.mode == Mode::Batch && !args.quiet {
            result.info.push(par_speedup(spec, args));
        }
    }
    if !args.quiet {
        print_human(spec, args, &result, tracer.as_ref());
    }
    let detail = object([
        ("workload", text(spec.name)),
        ("seed", int(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("env", environment()),
        (
            "context",
            object(result.context.iter().map(|(k, v)| (*k, text(v.clone())))),
        ),
        ("info", metrics_object(&result.info)),
        (
            "failures",
            object(result.failures.fields().map(|(k, v)| (k, int(v)))),
        ),
        (
            "errors",
            Value::Array(result.errors.iter().map(text).collect()),
        ),
    ]);
    // A failure outside the per-operation counts still has to show in
    // `failed`, or `correct: false` would come with `failed: 0`.
    let failed =
        (result.failures.total() + result.errors.len() as u64).min(result.attempted.max(1));
    let line = object([
        ("correct", Value::Bool(result.correct())),
        ("attempted", int(result.attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", metrics_object(&result.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&detail).map_err(|e| e.to_string())?
    );
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// `--par-probe`: median seconds of three clustered analyzes with the
/// pool this process was given; the parent compares thread counts.
pub fn par_probe(spec: &Spec, args: &Args) -> Result<bool, String> {
    let corpus = workload::build_corpus(spec, args.seed);
    let pipeline = workload::fit_reference(spec);
    let traces: Vec<&Trace> = corpus.items.iter().map(|i| &i.trace).collect();
    let mut calls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pipeline.analyze(&traces, AnalyzeOptions::clustered()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    println!("{}", stats::median(&mut calls).expect("three calls"));
    Ok(true)
}

/// `par.speedup`: the same analyze in fresh processes with
/// `SLEUTH_THREADS=1` and `=nproc`. Informational; `n/a` on one core.
fn par_speedup(spec: &Spec, args: &Args) -> Metric {
    let probe = |threads: usize| -> Option<f64> {
        let exe = std::env::current_exe().ok()?;
        let out = Command::new(exe)
            .args([
                "--workload",
                spec.name,
                "--seed",
                &args.seed.to_string(),
                "--par-probe",
            ])
            .env("SLEUTH_THREADS", threads.to_string())
            .stderr(Stdio::inherit())
            .output()
            .ok()?;
        String::from_utf8_lossy(&out.stdout).trim().parse().ok()
    };
    let n = nproc();
    let value = if n == 1 {
        f64::NAN // printed as n/a: one core has no parallel speed-up to report
    } else {
        match (probe(1), probe(n)) {
            (Some(one), Some(many)) => one / many,
            _ => f64::NAN,
        }
    };
    Metric {
        name: "par.speedup",
        value,
        unit: "x",
    }
}

/// Metrics of one fresh-process run, by name.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn metrics_of(v: &Value) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    if let Some(map) = v.as_object() {
        for (name, entry) in map.iter() {
            let Some(entry) = entry.as_object() else {
                continue;
            };
            let value = match entry.get("value") {
                Some(Value::Number(n)) => n.as_f64(),
                _ => f64::NAN,
            };
            let unit = entry
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            out.insert(name.clone(), (value, unit));
        }
    }
    out
}

/// Re-execute this binary for one run: every sample is a fresh process.
fn child_run(spec: &Spec, args: &Args, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--quiet"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!("run of {} exited with {}", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("run printed nothing")?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let detail: Value = lines
        .next()
        .and_then(|l| serde_json::from_str(l).ok())
        .unwrap_or(Value::Null);
    let result = result.as_object().ok_or("result line is not an object")?;
    let count = |key: &str| match result.get(key) {
        Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
        _ => 0,
    };
    let mut metrics = result.get("metrics").map(metrics_of).unwrap_or_default();
    if let Some(info) = detail.as_object().and_then(|d| d.get("info")) {
        metrics.extend(metrics_of(info));
    }
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// Per workload: every metric's samples over a set of fresh-process runs.
struct Set {
    samples: BTreeMap<String, (Vec<f64>, String)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Set {
    fn median(&self, name: &str) -> Option<f64> {
        let mut values: Vec<f64> = self
            .samples
            .get(name)?
            .0
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        stats::median(&mut values)
    }
}

/// One fresh-process run per seed in `seeds`.
fn run_set(spec: &Spec, args: &Args, seeds: impl Iterator<Item = u64>) -> Result<Set, String> {
    let mut set = Set {
        samples: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    for seed in seeds {
        let run = child_run(spec, args, seed)?;
        set.attempted += run.attempted;
        set.failed += run.failed;
        set.correct &= run.correct;
        for (name, (value, unit)) in run.metrics {
            set.samples
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
    }
    Ok(set)
}

fn same_seed(args: &Args) -> impl Iterator<Item = u64> {
    std::iter::repeat_n(args.seed, args.runs)
}

/// No `--workload`: every workload, `--runs` fresh processes each,
/// every metric by name with its unit.
pub fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let set = run_set(spec, args, same_seed(args))?;
        all_correct &= set.correct;
        println!(
            "== {} (median of {} runs, {} s each, seed {}, trace {}) attempted={} failed={} failed_share={} correct={}",
            spec.name,
            args.runs,
            args.seconds,
            args.seed,
            u8::from(args.trace),
            set.attempted,
            set.failed,
            set.failed as f64 / set.attempted.max(1) as f64,
            set.correct
        );
        for (name, (_, unit)) in &set.samples {
            let value = set
                .median(name)
                .map_or("n/a".to_string(), |v| format!("{v:.4}"));
            println!("  {name:<44} {value:>16} {unit}");
        }
    }
    Ok(all_correct)
}

/// `BENCHMARK.json` of the checkout the benchmark is run from.
fn contract() -> Result<Map, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    match serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))? {
        Value::Object(map) => Ok(map),
        other => Err(format!(
            "BENCHMARK.json: expected an object, found {}",
            other.kind()
        )),
    }
}

/// `(name, higher is better, bound)` per end-to-end metric, from
/// `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .as_object()
        .and_then(|d| d.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let m = m.as_object().ok_or("end_to_end entry is not an object")?;
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = match m.get("bound") {
                Some(Value::Number(n)) => n.as_f64(),
                _ => return Err(format!("{name}: no bound")),
            };
            Ok((name.to_string(), higher, bound))
        })
        .collect()
}

/// `--selfcheck`: two full sets on the same code; per metric ×
/// workload both medians, their ratio, and pass/fail against the
/// metric's own bound.
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut all_pass = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for spec in &WORKLOADS {
        let first = run_set(spec, args, same_seed(args))?;
        let second = run_set(spec, args, same_seed(args))?;
        all_pass &= first.correct && second.correct;
        for (name, higher, bound) in &bounds {
            let (Some(a), Some(b)) = (first.median(name), second.median(name)) else {
                return Err(format!("{}: metric {name} missing from a run", spec.name));
            };
            // How much worse the second set is than the first.
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            let pass = worse <= *bound;
            all_pass &= pass;
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {}",
                spec.name,
                name,
                a,
                b,
                b / a,
                bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

/// `--spread`: ten runs per workload, each with another seed; per
/// end-to-end metric the interquartile range as a share of the median
/// (what the driver computes) against the metric's bound.
pub fn spread(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut all_pass = true;
    println!(
        "{:<16} {:<18} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for spec in &WORKLOADS {
        let set = run_set(spec, args, args.seed..args.seed + 10)?;
        all_pass &= set.correct;
        for (name, _, bound) in &bounds {
            let values = &set
                .samples
                .get(name)
                .ok_or_else(|| format!("{}: no {name}", spec.name))?
                .0;
            let share = stats::iqr_share(values)
                .ok_or_else(|| format!("{}: {name} has no spread", spec.name))?;
            // setup_s is judged on its medians only.
            let pass = share <= *bound || name == "setup_s";
            all_pass &= pass;
            println!(
                "{:<16} {:<18} {:>14.4} {:>8.4} {:>6.2}  {}",
                spec.name,
                name,
                set.median(name).unwrap_or(f64::NAN),
                share,
                bound,
                if !pass {
                    "FAIL"
                } else if share <= bound / 3.0 {
                    "steady"
                } else {
                    "pass"
                }
            );
        }
    }
    Ok(all_pass)
}
