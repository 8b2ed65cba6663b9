//! `sleuth-benchmark`: OTLP bytes in → root-cause verdict out through a
//! real `sleuth-shardd`, with a per-layer budget.
//!
//! ```text
//! sleuth-benchmark --workload NAME --seed N --seconds N --trace 0|1   one run (the driver's contract)
//! sleuth-benchmark [--runs N] [--seconds N] [--trace 1]               every workload, medians by name
//! sleuth-benchmark --selfcheck [--runs N]                             two full sets against the bounds
//! sleuth-benchmark --spread                                           ten seeds per workload against the bounds
//! ```
//!
//! Run from the repository root. A single run prints a human report on
//! stderr, a detail JSON line on stdout, and as the last stdout line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod e2e;
mod layers;
mod online;
mod report;
mod stats;
mod sut;
mod tracer;
mod workload;

use std::process::ExitCode;

use workload::{Mode, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`; the default for every mode.
const RUN_SECONDS: f64 = 10.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
    pub spread: bool,
    pub runs: usize,
    pub quiet: bool,
    par_probe: bool,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: sleuth-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--runs N] [--selfcheck | --spread]
seeds: default 1; 2 is the hold-out seed no size was tuned on
workloads:",
    );
    for w in &workload::WORKLOADS {
        text.push_str(&format!("\n  {:<15} {}", w.name, w.why));
    }
    text
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        spread: false,
        runs: 3,
        quiet: false,
        par_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        let num = |s: String, name: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("{name}: not a number: {s}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let s = value("--seed")?;
                args.seed = s
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {s}"))?;
            }
            "--seconds" => args.seconds = num(value("--seconds")?, "--seconds")?,
            "--trace" => args.trace = num(value("--trace")?, "--trace")? != 0.0,
            "--runs" => args.runs = num(value("--runs")?, "--runs")? as usize,
            "--selfcheck" => args.selfcheck = true,
            "--spread" => args.spread = true,
            "--quiet" => args.quiet = true,
            "--par-probe" => args.par_probe = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.runs == 0 {
        return Err(format!(
            "--seconds and --runs must be positive\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("sleuth-benchmark: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        None if args.selfcheck => report::selfcheck(&args),
        None if args.spread => report::spread(&args),
        None => report::all_workloads(&args),
        Some(name) => match workload::find(name) {
            None => Err(format!("unknown workload {name}\n{}", usage())),
            Some(spec) => {
                if spec.mode == Mode::Batch && !args.par_probe {
                    // The batch workload is defined single-threaded; the
                    // pool reads this once, at its first use.
                    std::env::set_var("SLEUTH_THREADS", "1");
                }
                if args.par_probe {
                    report::par_probe(spec, &args)
                } else {
                    report::single_run(spec, &args)
                }
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("sleuth-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
