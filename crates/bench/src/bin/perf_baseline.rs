//! Records the performance baseline.
//!
//! Runs the [`prosper_bench::perf`] suite — bitmap-inspection
//! speedups, parallel-commit scaling,
//! checkpoint-latency percentiles, end-to-end workload runtimes, the
//! staged-delta spine study, lock-free allocator throughput, and the
//! staggered-fleet bandwidth-smoothing study — prints the tables, and
//! writes the JSON report (default `BENCH_pr9.json`; earlier records
//! are `BENCH_pr3.json`, `BENCH_pr7.json`, and `BENCH_pr8.json`).
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin perf_baseline
//! cargo run --release -p prosper-bench --bin perf_baseline -- --quick --out BENCH_smoke.json
//! ```
//!
//! Exits nonzero if the acceptance gate fails (sparse-stack
//! inspection speedup < 5x, spine critical-path latency above
//! eager, spine write amplification not at-or-below eager on every
//! pattern, lock-free alloc throughput below the serial reference or
//! degrading with workers on a multi-core host, staggered fleet
//! peak-to-mean not strictly below aligned, missing sections) or the
//! emitted JSON does not parse back.
//!
//! Gates that depend on host parallelism are auto-skipped on
//! single-core hosts; when that happens a prominent warning is
//! printed, because the recorded baseline then proves less than a
//! multi-core record would (the BENCH_pr7.json lesson: it was
//! recorded on a 1-core host with `gate_enforced: false` and nobody
//! noticed).

use std::process::ExitCode;

use prosper_bench::perf::{self, PerfConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr9.json".to_string());

    let cfg = if quick {
        PerfConfig::quick()
    } else {
        PerfConfig::full()
    };
    println!(
        "Prosper perf baseline ({} budgets) -> {out}\n",
        if quick { "quick" } else { "full" }
    );

    let report = perf::run_all(&cfg);
    for table in perf::render(&report) {
        table.print();
    }

    let s = &report.summary;
    println!("summary:");
    println!(
        "  sparse-stack inspect speedup: {:.1}x (gate: >= {:.0}x)",
        s.sparse_stack_speedup,
        perf::SPARSE_STACK_GATE
    );
    println!(
        "  commit speedup at {} workers: {:.2}x",
        s.max_commit_workers, s.commit_speedup_at_max_workers
    );
    let sw = &report.commit.sweep;
    println!(
        "  commit worker fit: worker {} ns, copy {} ps/B, bandwidth {} ps/B; fit error \
         median {:.0}%, max {:.0}%; fan-out {}",
        sw.fitted_spawn_ns,
        sw.fitted_copy_byte_ps,
        sw.fitted_bandwidth_byte_ps,
        sw.fit_err_pct,
        sw.fit_err_max_pct,
        sw.break_even_bytes.map_or_else(
            || "never beat serial".to_string(),
            |b| format!("beat serial from {} KiB/commit", b >> 10)
        )
    );
    println!(
        "  checkpoint interval p99: {} cycles",
        s.ckpt_interval_p99_cycles
    );
    println!(
        "  hot-words NVM write amplification: spine {} vs eager {} milli \
         (gate: strictly lower)",
        s.spine_hot_words_write_amp_milli, s.eager_hot_words_write_amp_milli
    );
    println!(
        "  lock-free alloc: {:.2}x reference serial, {:.2}x at {} workers (gate {})",
        s.alloc_serial_speedup,
        s.alloc_speedup_at_max_workers,
        report.alloc.rows.last().map_or(1, |r| r.workers),
        if report.alloc.gate_enforced {
            "enforced"
        } else {
            "scaling skipped: single-core host"
        }
    );
    println!(
        "  fleet peak-to-mean NVM bandwidth: staggered {} vs aligned {} milli \
         (gate: strictly lower)",
        s.fleet_staggered_peak_to_mean_milli, s.fleet_aligned_peak_to_mean_milli
    );

    if !report.alloc.gate_enforced {
        eprintln!(
            "\n=========================================================================\n\
             WARNING: host parallelism is {} — the lock-free allocator scaling gate\n\
             was AUTO-SKIPPED (alloc.gate_enforced: false in the artifact). Only the\n\
             1-worker throughput floor was enforced; this baseline does NOT\n\
             demonstrate multi-worker alloc scaling. Re-record it on a multi-core\n\
             host before treating it as the reference.\n\
             =========================================================================",
            report.alloc.host_parallelism
        );
    }

    if let Err(why) = perf::validate(&report) {
        eprintln!("\nRESULT: FAIL ({why})");
        return ExitCode::FAILURE;
    }

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("\nRESULT: FAIL (serialize: {e:?})");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("\nRESULT: FAIL (write {out}: {e})");
        return ExitCode::FAILURE;
    }

    // Read the artifact back and check it is well-formed JSON with the
    // sections the consumers (CI, EXPERIMENTS.md) rely on.
    match std::fs::read_to_string(&out)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            serde_json::from_str::<serde_json::Value>(&text).map_err(|e| format!("{e:?}"))
        }) {
        Ok(v) => {
            let schema_ok = v.get("schema").and_then(|s| s.as_str()) == Some(perf::SCHEMA);
            let rows = v
                .get("bitmap")
                .and_then(|b| b.as_array())
                .map_or(0, Vec::len);
            if !schema_ok || rows == 0 {
                eprintln!("\nRESULT: FAIL ({out} is malformed or empty)");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("\nRESULT: FAIL (re-read {out}: {e})");
            return ExitCode::FAILURE;
        }
    }

    println!("\nwrote {out}");
    println!("RESULT: PASS");
    ExitCode::SUCCESS
}
