//! The serving benchmark: one command, two workloads, correctness
//! checked before any number is reported.
//!
//! ```text
//! perfbench --workload <decode_batch|chat_int8> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! and the spans are written to `.bench_out/spans_<workload>_<seed>.json`.

mod chat_int8;
mod common;
mod decode_batch;
mod probes;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Outcome, CP, POOL_THREADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
    })
}

/// A JSON number: a missed latency (infinite) reads as 1e300, a metric
/// with no samples (NaN) as 0.
fn number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

fn result_line(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.correct, o.tally.attempted, o.tally.failed
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("perfbench: nproc={nproc}, timed configs CP={CP} and CP=1 at {POOL_THREADS} pool thread(s) per rank");
    for ranks in [CP, 1] {
        stats::check_thread_budget(ranks, POOL_THREADS, nproc)?;
    }
    match args.workload.as_str() {
        "decode_batch" => decode_batch::run(args.seed, args.seconds, args.trace),
        "chat_int8" => chat_int8::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    if let Some(spans) = &outcome.spans {
        let path = format!(".bench_out/spans_{}_{}.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, spans));
        if let Err(e) = written {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  spans written to {path}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
