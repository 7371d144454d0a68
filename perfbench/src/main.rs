//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload persist_apps --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Informational lines and every metric by name and unit come first;
//! the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--spans <file>` also writes the recorded
//! spans there.

use std::process::ExitCode;

use prosper_perfbench::host::Fingerprint;
use prosper_perfbench::{expected_metrics, run, Budget, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--spans <file>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::read();
    println!("# {}", host.line());
    // Commit workers share the host's cores; a single-core result would
    // silently measure a different program, so refuse to produce one.
    if host.nproc < 2 {
        eprintln!(
            "error: available_parallelism is {}; this benchmark needs at least 2 cores",
            host.nproc
        );
        return ExitCode::from(3);
    }
    let budget = Budget {
        seconds: args.seconds,
    };
    let Some((report, tracer)) = run(&args.workload, args.seed, &budget, args.traced) else {
        eprintln!(
            "error: unknown workload {}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            eprintln!("error: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    for line in report.lines() {
        println!("{line}");
    }
    if report.checks.failed > 0 {
        eprintln!(
            "{} of {} output checks failed",
            report.checks.failed, report.checks.attempted
        );
    }
    let reported: Vec<(String, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    if reported != expected_metrics(args.traced) {
        eprintln!("error: the run's metrics differ from those BENCHMARK.json lists");
        return ExitCode::from(1);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
