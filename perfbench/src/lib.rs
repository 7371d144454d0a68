//! Benchmark of the Prosper reproduction on both of its clocks.
//!
//! `sim_fig8` replays the Figure 8 matrix through the memory simulator
//! (simulated cycles, and the simulator's own host time).
//! `persist_apps` and `persist_stream_spine` run host persistent
//! execution with checkpoints, crashes and recoveries (host wall time).
//! Every end-to-end host time is calibrated against a fixed reference
//! pass run beside it (see `calib`).
//! Untraced runs report the end-to-end metrics of `END_TO_END`; a
//! traced run times every call into a layer from outside and reports
//! the per-layer metrics of `PER_LAYER`. See `README.md` beside this
//! crate for why each workload was chosen.
#![allow(clippy::disallowed_methods)] // measuring host time is the point

mod calib;
pub mod host;
mod persist;
pub mod report;
mod sim;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use report::Report;
use spans::{Tracer, LAYERS};

/// Workloads the benchmark runs. `BENCHMARK.json` lists all but
/// `persist_apps`, whose checkpoint stall did not repeat between runs on
/// the host the benchmark was tuned on (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["sim_fig8", "persist_apps", "persist_stream_spine"];

/// End-to-end metrics `(name, unit)` every untraced run reports.
pub(crate) const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("prosper_overhead_pct", "%"),
    ("stores_per_s", "1/s"),
    ("ckpt_p50_us", "us"),
    ("recover_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)` every traced run reports, before
/// the per-layer self times. A layer the workload bypasses reports 0.
pub(crate) const PER_LAYER: [(&str, &str); 35] = [
    ("trace.ns_per_event", "ns"),
    ("trace.events", "events"),
    ("memsim.self_ns_per_access", "ns"),
    ("memsim.l1d_misses", "count"),
    ("memsim.l3_misses", "count"),
    ("memsim.nvm_writes", "count"),
    ("memsim.injected_stores", "count"),
    ("tracker.ns_per_store", "ns"),
    ("tracker.bitmap_ops_per_store", "ops/store"),
    ("tracker.flush_ns", "ns"),
    ("bitmap.inspect_ns", "ns"),
    ("bitmap.words_read", "words/ckpt"),
    ("bitmap.runs_per_ckpt", "runs/ckpt"),
    ("bitmap.dirty_bytes_per_ckpt", "B/ckpt"),
    ("oscomp.end_interval_ns", "ns"),
    ("oscomp.ckpt_cycles", "cycles"),
    ("baselines.on_store_ns", "ns"),
    ("baselines.end_interval_ns", "ns"),
    ("baselines.romulus_overhead_pct", "%"),
    ("baselines.ssp_10us_overhead_pct", "%"),
    ("baselines.ssp_100us_overhead_pct", "%"),
    ("baselines.ssp_1ms_overhead_pct", "%"),
    ("baselines.dirtybit_overhead_pct", "%"),
    ("commit.ns", "ns"),
    ("commit.ns_per_byte", "ns/B"),
    ("commit.model_err_pct", "%"),
    ("spine.merge_commit_ns", "ns"),
    ("spine.append_commit_ns", "ns"),
    ("spine.merge_commits", "1/ckpt"),
    ("spine.bytes_per_dirty_byte", "B/B"),
    ("persist.record_ns_per_store", "ns"),
    ("recover.ns", "ns"),
    ("recover.batches_folded", "batches"),
    ("tracing.sim_events_overhead_pct", "%"),
    ("tracing.stores_overhead_pct", "%"),
];

/// Name of the self-time metric of `layer`.
fn selftime_name(layer: &str) -> String {
    format!("selftime.{layer}_pct")
}

/// `(name, unit)` of every metric a run reports, in order: the
/// end-to-end metrics untraced, the per-layer metrics and self times
/// traced.
pub fn expected_metrics(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(LAYERS.iter().map(|l| (selftime_name(l), "%")))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    }
}

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Seconds of measurement.
    pub seconds: f64,
}

impl Budget {
    /// Whether the budget is used up since `start`.
    pub fn spent(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Mixes `salt` into `seed` (splitmix64 finaliser): derives the
/// per-application and per-thread seeds and the stored values.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-layer metrics of a traced run; unset ones report 0.
#[derive(Debug, Default)]
pub(crate) struct Layered {
    values: BTreeMap<String, f64>,
}

impl Layered {
    /// Sets a metric of [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not list.
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Tracing overhead: how much slower the traced rounds ran than the
    /// untraced ones of the same run, in events and in stores per second.
    pub(crate) fn tracing_overhead(&mut self, events: (f64, f64), stores: (f64, f64)) {
        let pct =
            |(untraced, traced): (f64, f64)| report::ratio(untraced - traced, untraced) * 100.0;
        self.set("tracing.sim_events_overhead_pct", pct(events));
        self.set("tracing.stores_overhead_pct", pct(stores));
    }

    /// Adds the metrics to `report` in [`PER_LAYER`] order, followed by
    /// each layer's share of the traced time as span self time.
    pub(crate) fn finish(self, report: &mut Report, tracer: &Tracer) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
        let by_layer = tracer.self_ns_by_layer();
        let root = tracer.root_ns() as f64;
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0) as f64;
            report.metric(selftime_name(layer), report::ratio(ns, root) * 100.0, "%");
        }
    }
}

/// Runs `workload` and returns its report and the spans it recorded.
/// `None` for an unknown workload.
pub fn run(workload: &str, seed: u64, budget: &Budget, traced: bool) -> Option<(Report, Tracer)> {
    match workload {
        "sim_fig8" => Some(sim::run(seed, budget, traced)),
        other => persist::Spec::named(other).map(|spec| persist::run(&spec, seed, budget, traced)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this crate reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("key present");
            let end = json[start..].find(']').map_or(json.len(), |e| start + e);
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let listed: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| **w != "persist_apps")
            .map(|s| s.to_string())
            .collect();
        assert_eq!(names("workloads"), listed);
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let expected: Vec<String> = expected_metrics(traced)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            assert_eq!(names(key), expected, "{key}");
        }
        for (name, unit) in expected_metrics(false)
            .iter()
            .chain(&expected_metrics(true))
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} with unit {unit}"
            );
        }
    }

    #[test]
    fn mix_separates_salts() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
